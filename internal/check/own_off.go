//go:build !promdebug

package check

// Owners is the write-ownership sanitizer stub for release builds: an
// empty struct with no-op methods. All call sites sit under
// "if check.Enabled" so the hooks vanish entirely (locked in by
// TestOwnersInertWithoutPromdebug).
type Owners struct{}

// Init is a no-op in release builds.
func (o *Owners) Init(nw int) {}

// Enable is a no-op in release builds.
func (o *Owners) Enable() {}

// Disable is a no-op in release builds.
func (o *Owners) Disable() {}

// Claim is a no-op in release builds.
func (o *Owners) Claim(w int, y []float64, lo, hi int) {}

// Release is a no-op in release builds.
func (o *Owners) Release(w int) {}
