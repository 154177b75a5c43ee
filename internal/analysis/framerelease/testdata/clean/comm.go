// Package clean carries a self-contained replica of the repo's transport
// shape: a named Comm with Recv, RecvTimeout, and Release. The analyzer
// keys on that structure, so these golden packages need no module
// imports.
package clean

type Status struct{ Source, Tag int }

type Comm struct{}

func (c *Comm) Recv(source, tag int) ([]byte, Status, error) { return nil, Status{}, nil }

func (c *Comm) RecvTimeout(source, tag, ms int) ([]byte, Status, bool) {
	return nil, Status{}, false
}

func (c *Comm) Release(buf []byte) {}

func (c *Comm) Frame(n int) []byte { return make([]byte, 0, n) }

func (c *Comm) SendFrame(dest, tag int, buf []byte) error { return nil }
