package httpserve

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"lsgraph"
	"lsgraph/internal/wal"
)

// graphConfigFile is the per-graph config record written next to a durable
// graph's WAL and checkpoints. Open reads it to re-create the graph with
// the exact configuration it was created with.
const graphConfigFile = "graph.json"

// tombstonePrefix prefixes the name a dropped graph's directory is renamed
// to before it is removed. graphNameRE cannot produce such a name, so Open
// deletes every directory that bears it and never recovers one.
const tombstonePrefix = ".dropped-"

// Open returns a Server like New and, when cfg.DataDir is set, recovers
// every graph previously persisted there: each DataDir subdirectory with a
// graph.json is re-created with its recorded config, which replays its WAL
// and loads its newest checkpoint through the store's recovery path. It
// deletes the tombstones of dropped graphs, and refuses a subdirectory that
// holds WAL state but no graph.json rather than skip a graph it cannot
// re-create; a subdirectory with neither is ignored. With no DataDir it is
// equivalent to New and cannot fail.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if s.cfg.DataDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.DataDir, e.Name())
		if strings.HasPrefix(e.Name(), tombstonePrefix) {
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("remove dropped graph %s: %w", dir, err)
			}
			continue
		}
		gc, err := readGraphConfig(dir)
		if os.IsNotExist(err) {
			held, err := holdsWAL(dir)
			if err != nil {
				return nil, fmt.Errorf("recover graph %q: %w", e.Name(), err)
			}
			if held {
				return nil, fmt.Errorf("recover graph %q: %s holds WAL state but no %s", e.Name(), dir, graphConfigFile)
			}
			continue // not a graph directory
		}
		if err != nil {
			return nil, fmt.Errorf("recover graph %q: %w", e.Name(), err)
		}
		if _, _, err := s.CreateGraph(e.Name(), gc); err != nil {
			return nil, fmt.Errorf("recover graph %q: %w", e.Name(), err)
		}
	}
	return s, nil
}

// holdsWAL reports whether dir holds a store's WAL state: the shard logs'
// wal directory or the checkpoint directory.
func holdsWAL(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	for _, e := range ents {
		if n := e.Name(); n == "wal" || n == "checkpoint" {
			return true, nil
		}
	}
	return false, err
}

// Durable reports whether the server persists graphs under a data
// directory.
func (s *Server) Durable() bool { return s.cfg.DataDir != "" }

// graphDir is the named graph's durability directory under DataDir.
func (s *Server) graphDir(name string) string {
	return filepath.Join(s.cfg.DataDir, name)
}

// openStore builds the named graph's store from its resolved config —
// durable under DataDir/name when the server has a data directory. There
// it first makes the graph config durable beside where the WAL will be, so
// no logged batch can outlive the record Open re-creates the graph from; if
// the store then fails to open a graph directory this call created, the
// directory goes again.
func (s *Server) openStore(name string, gc GraphConfig) (*lsgraph.Store, error) {
	opts := []lsgraph.Option{
		lsgraph.WithShards(gc.Shards),
		lsgraph.WithMaxQueue(gc.MaxQueue),
		lsgraph.WithAutoRebalance(gc.AutoRebalance),
	}
	if s.cfg.DataDir == "" {
		return lsgraph.OpenStore(gc.Vertices, opts...)
	}
	dir := s.graphDir(name)
	_, err := os.Stat(dir)
	created := os.IsNotExist(err)
	if err := writeGraphConfig(dir, gc); err != nil {
		return nil, err
	}
	st, err := lsgraph.OpenStore(gc.Vertices, append(opts, lsgraph.WithDurability(dir, lsgraph.DurabilityOptions{
		Fsync:           s.cfg.Fsync,
		FsyncInterval:   s.cfg.FsyncInterval,
		CheckpointEvery: s.cfg.CheckpointEvery,
	}))...)
	if err != nil && created {
		os.RemoveAll(dir) // best effort: the open's error is the one to report
	}
	return st, err
}

// readGraphConfig loads dir/graph.json.
func readGraphConfig(dir string) (GraphConfig, error) {
	b, err := os.ReadFile(filepath.Join(dir, graphConfigFile))
	if err != nil {
		return GraphConfig{}, err
	}
	var gc GraphConfig
	if err := json.Unmarshal(b, &gc); err != nil {
		return GraphConfig{}, err
	}
	return gc, nil
}

// writeGraphConfig durably records the resolved config as dir/graph.json,
// creating dir: the file is written to a temporary name and fsynced, then
// renamed into place, and dir and its parent are synced, so a crash
// mid-write never leaves a half-written config for Open to trip on.
func writeGraphConfig(dir string, gc GraphConfig) error {
	b, err := json.MarshalIndent(gc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, graphConfigFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, graphConfigFile))
	}
	if err == nil {
		err = wal.OS().SyncDir(dir)
	}
	if err == nil {
		err = wal.OS().SyncDir(filepath.Dir(dir))
	}
	return err
}

// removeGraphDir deletes a dropped graph's directory. It renames the
// directory to its tombstone and syncs DataDir first, so a crash or an I/O
// error partway through the removal leaves a directory Open deletes, never
// part of a graph it would recover. Errors are logged: the graph is gone
// from the server either way.
func (s *Server) removeGraphDir(name string) {
	tomb := filepath.Join(s.cfg.DataDir, tombstonePrefix+name)
	err := os.RemoveAll(tomb) // an earlier drop's, if its removal failed
	if err == nil {
		err = os.Rename(s.graphDir(name), tomb)
	}
	if err == nil {
		err = wal.OS().SyncDir(s.cfg.DataDir)
	}
	if err == nil {
		err = os.RemoveAll(tomb)
	}
	if err != nil {
		log.Printf("drop graph %q: %v", name, err)
	}
}
