package server

import (
	"repro/internal/persist"
)

// The durable wrapper must slot into the serving stack unchanged.
// (These assertions lived in persist's tests; they moved here when the
// server grew its persist introspection import, which would otherwise
// make them a test-only import cycle.)
var _ Store = (*persist.Map)(nil)
