// Package user imports the bridge fixture, so the fixture's external
// test sees bridge through it as well as directly.
package user

import "repro/internal/analysis/testdata/bridge"

// New returns a fresh counter.
func New() *bridge.Counter { return &bridge.Counter{} }
