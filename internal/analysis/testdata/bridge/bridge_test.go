package bridge_test

import (
	"testing"

	"repro/internal/analysis/testdata/bridge"
	"repro/internal/analysis/testdata/bridge/user"
)

func TestBridge(t *testing.T) {
	var c *bridge.Counter = user.New()
	c.Add()
	if c.N() != 1 {
		t.Fatal(c.N())
	}
}
