package hitree

import "fmt"

// CheckInvariants walks every node of the tree and verifies the structural
// invariants of §3.2/§4.2, returning a descriptive error on the first
// violation. It is the deep validator behind internal/check's randomized
// correctness harness.
//
// Checked per node kind:
//   - leafArray: sorted strictly ascending and within the LeafArrayMax
//     threshold,
//   - RIA leaf: the full RIA invariant set (ria.CheckInvariants),
//   - LIA: block-type consistency (child blocks fully tC with a non-empty
//     child shared by a contiguous run, B-runs packed at the block front
//     and sorted, E entries stored at their model-predicted slot), a
//     non-negative model slope, and the subtree count matching the stored
//     total,
//   - bnode: separators strictly ascending with one more child than
//     separators and the subtree count matching the stored total.
//
// Tree-wide, the in-order traversal must be strictly ascending and agree
// with Len().
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("hitree: nil root")
	}
	if err := checkNode(t.root, &t.cfg); err != nil {
		return err
	}
	var prev uint32
	n, havePrev := 0, false
	bad := ""
	t.root.blocks(func(b []uint32) bool {
		for _, u := range b {
			if bad == "" && havePrev && u <= prev {
				bad = fmt.Sprintf("hitree: traversal not strictly ascending: %d after %d", u, prev)
			}
			prev, havePrev = u, true
			n++
		}
		return true
	})
	if bad != "" {
		return fmt.Errorf("%s", bad)
	}
	if n != t.Len() {
		return fmt.Errorf("hitree: traversal yields %d elements but Len is %d", n, t.Len())
	}
	return nil
}

// checkNode validates one node and recurses into children.
func checkNode(nd node, cfg *Config) error {
	switch n := nd.(type) {
	case *leafArray:
		if len(n.data) > cfg.LeafArrayMax {
			return fmt.Errorf("hitree: leaf array of %d exceeds LeafArrayMax %d", len(n.data), cfg.LeafArrayMax)
		}
		for i := 1; i < len(n.data); i++ {
			if n.data[i] <= n.data[i-1] {
				return fmt.Errorf("hitree: leaf array unsorted at %d: %d after %d", i, n.data[i], n.data[i-1])
			}
		}
		return nil
	case *riaNode:
		return n.ria().CheckInvariants()
	case *lia:
		return checkLIA(n, cfg)
	case *bnode:
		return checkBNode(n, cfg)
	default:
		return fmt.Errorf("hitree: unknown node kind %T", nd)
	}
}

func checkLIA(l *lia, cfg *Config) error {
	nb := len(l.children)
	if len(l.data) != nb*BlockSize {
		return fmt.Errorf("hitree: lia data length %d != %d blocks * %d", len(l.data), nb, BlockSize)
	}
	if l.slope < 0 {
		return fmt.Errorf("hitree: lia model slope %g negative for sorted keys", l.slope)
	}
	total := 0
	for blk := 0; blk < nb; blk++ {
		base := blk * BlockSize
		if c := l.children[blk]; c != nil {
			// A child block is fully tC; a run sharing one child must be
			// contiguous, and the child is dropped (nil) when it empties.
			for i := 0; i < BlockSize; i++ {
				if l.typeOf(base+i) != tC {
					return fmt.Errorf("hitree: lia block %d has child but slot %d type %d != tC", blk, i, l.typeOf(base+i))
				}
			}
			if c.size() == 0 {
				return fmt.Errorf("hitree: lia block %d holds an empty child", blk)
			}
			if blk > 0 && l.children[blk-1] == c {
				continue // counted at the run's first block
			}
			if err := checkNode(c, cfg); err != nil {
				return err
			}
			run := blk
			for run+1 < nb && l.children[run+1] == c {
				run++
			}
			for b := run + 1; b < nb; b++ {
				if l.children[b] == c {
					return fmt.Errorf("hitree: lia child of block %d reappears at non-contiguous block %d", blk, b)
				}
			}
			total += c.size()
			continue
		}
		if l.typeOf(base) == tB {
			// B-run: a tB prefix packed sorted at the block front, tU after.
			run := 0
			for run < BlockSize && l.typeOf(base+run) == tB {
				run++
			}
			for i := run; i < BlockSize; i++ {
				if ty := l.typeOf(base + i); ty != tU {
					return fmt.Errorf("hitree: lia block %d slot %d type %d after B-run of %d", blk, i, ty, run)
				}
			}
			for i := 1; i < run; i++ {
				if l.data[base+i] <= l.data[base+i-1] {
					return fmt.Errorf("hitree: lia block %d B-run unsorted at %d", blk, i)
				}
			}
			total += run
			continue
		}
		// E/U placement: every tE element sits at its predicted slot.
		for i := 0; i < BlockSize; i++ {
			switch ty := l.typeOf(base + i); ty {
			case tU:
			case tE:
				if p := l.predict(l.data[base+i]); p != base+i {
					return fmt.Errorf("hitree: lia block %d: element %d at slot %d but model predicts %d",
						blk, l.data[base+i], base+i, p)
				}
				total++
			default:
				return fmt.Errorf("hitree: lia block %d slot %d unexpected type %d in E/U block", blk, i, ty)
			}
		}
	}
	if total != l.total {
		return fmt.Errorf("hitree: lia holds %d elements but total is %d", total, l.total)
	}
	return nil
}

func checkBNode(b *bnode, cfg *Config) error {
	if len(b.children) != len(b.seps)+1 {
		return fmt.Errorf("hitree: bnode has %d children for %d separators", len(b.children), len(b.seps))
	}
	for i := 1; i < len(b.seps); i++ {
		if b.seps[i] <= b.seps[i-1] {
			return fmt.Errorf("hitree: bnode separators unsorted at %d", i)
		}
	}
	total := 0
	for _, c := range b.children {
		if err := checkNode(c, cfg); err != nil {
			return err
		}
		total += c.size()
	}
	if total != b.total {
		return fmt.Errorf("hitree: bnode children hold %d elements but total is %d", total, b.total)
	}
	return nil
}
