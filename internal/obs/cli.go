package obs

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Flags are the observability flags the commands share: -trace and
// -tracemode in every command, and -metrics, -obsdump and -autopsy in the
// ones that run to completion. Start applies them after the command line is
// parsed and Finish writes what they ask for at exit.
type Flags struct {
	metrics, trace, traceMode string
	dump, autopsy             bool
}

// Register defines the flags on fs with the command's own help for -trace,
// and for -metrics unless metrics is empty, in which case -metrics,
// -obsdump and -autopsy are not defined.
func (f *Flags) Register(fs *flag.FlagSet, trace, metrics string) {
	fs.StringVar(&f.trace, "trace", "", trace)
	fs.StringVar(&f.traceMode, "tracemode", "all", "flight-recorder sampling policy: all | sample=N | tail")
	if metrics != "" {
		fs.StringVar(&f.metrics, "metrics", "", metrics)
		fs.BoolVar(&f.dump, "obsdump", false, "enable metric collection and print a JSON metrics snapshot on exit")
		fs.BoolVar(&f.autopsy, "autopsy", false, "record the flight recorder and print the slow-batch autopsy report on exit")
	}
}

// Start serves the metrics endpoints (-metrics; errors go to stderr under
// prog), enables metric collection for -obsdump, and sets the flight
// recorder's mode when -trace or -autopsy asks for a recording, "off"
// meaning "all" there.
func (f *Flags) Start(prog string) error {
	if f.metrics != "" {
		go func() {
			if err := Serve(f.metrics); err != nil {
				fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", prog, err)
			}
		}()
	}
	if f.dump {
		SetEnabled(true)
	}
	if f.trace != "" || f.autopsy {
		m, n, err := ParseTraceMode(f.traceMode)
		if err != nil {
			return err
		}
		if m == TraceOff {
			m, n = TraceAll, 1
		}
		SetTraceMode(m, n)
	}
	return nil
}

// Finish prints the metrics snapshot (-obsdump), writes the Chrome trace
// (-trace) and prints the autopsy report (-autopsy), to stdout but for the
// trace. It returns the first error.
func (f *Flags) Finish() error {
	if f.dump {
		b, err := SnapshotJSON()
		if err != nil {
			return err
		}
		fmt.Printf("metrics snapshot:\n%s\n", b)
	}
	if f.trace != "" {
		out, err := os.Create(f.trace)
		if err != nil {
			return err
		}
		err = WriteChrome(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("flight-recorder trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", f.trace)
	}
	if f.autopsy {
		return WriteAutopsy(os.Stdout)
	}
	return nil
}

// ParseTraceMode parses a CLI-style trace mode: "off", "all" (or "on"),
// "sample=N", "tail". It returns the mode and its sample divisor.
func ParseTraceMode(s string) (TraceMode, int, error) {
	switch {
	case s == "" || s == "off":
		return TraceOff, 1, nil
	case s == "all" || s == "on":
		return TraceAll, 1, nil
	case s == "tail":
		return TraceTail, 1, nil
	case strings.HasPrefix(s, "sample="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "sample="))
		if err != nil || n < 1 {
			return TraceOff, 1, fmt.Errorf("lsgraph: bad sample divisor in trace mode %q", s)
		}
		return TraceSample, n, nil
	}
	return TraceOff, 1, fmt.Errorf("lsgraph: unknown trace mode %q (want off, all, sample=N, tail)", s)
}
