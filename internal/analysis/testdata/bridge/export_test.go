package bridge

// Add is the bridge: it exports the unexported add to bridge_test.
func (c *Counter) Add() { c.add() }

// N reads the count.
func (c *Counter) N() int { return c.n }
