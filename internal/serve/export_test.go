package serve

import "lsgraph/internal/core"

// Exported for the external test package: FuzzRecoveryTail needs
// internal/check, which imports this package, so it cannot live inside it.

// GraphOf is the graph a Store serves.
func GraphOf(s *Store) *core.Graph { return s.g }
