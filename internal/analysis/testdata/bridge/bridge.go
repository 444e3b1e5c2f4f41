// Package bridge is a loader fixture: an external test package that
// reaches unexported identifiers through an export_test.go bridge, and
// that imports a package which imports this one.
package bridge

// Counter counts.
type Counter struct{ n int }

func (c *Counter) add() { c.n++ }
