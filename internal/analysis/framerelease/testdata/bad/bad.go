package bad

type holder struct{ b []byte }

// leak copies out of the frame and drops it.
func leak(c *Comm) (string, error) {
	data, _, err := c.Recv(0, 0)
	if err != nil {
		return "", err
	}
	return string(data), nil // want `frame "data" from Recv is used on this path but never Released`
}

// timeoutLeak leaks a RecvTimeout frame.
func timeoutLeak(c *Comm) byte {
	data, _, ok := c.RecvTimeout(0, 0, 5)
	if !ok {
		return 0
	}
	return data[0] // want `frame "data" from Recv is used on this path but never Released`
}

// aliasLeak leaks through a subslice alias.
func aliasLeak(c *Comm) int {
	data, _, _ := c.Recv(0, 0)
	view := data[4:]
	return len(view) // want `frame "data" from Recv is used on this path but never Released`
}

// useAfter touches the buffer after giving it back to the pool.
func useAfter(c *Comm) byte {
	data, _, _ := c.Recv(0, 0)
	c.Release(data)
	return data[0] // want `frame "data" used after Release`
}

// doubleRelease releases on a branch and then unconditionally.
func doubleRelease(c *Comm) {
	data, _, _ := c.Recv(0, 0)
	if len(data) > 0 {
		c.Release(data)
	}
	c.Release(data) // want `frame "data" Released twice`
}

// escapeAfter stores the released buffer where a later reader will see
// recycled pool memory.
func escapeAfter(c *Comm, h *holder) {
	data, _, _ := c.Recv(0, 0)
	c.Release(data)
	h.b = data // want `frame "data" escapes after Release`
}

// retainsFrame is a retention predicate: a frame carrying op 3 keeps
// slices into it alive past handling.
func retainsFrame(op byte) bool { return op == 3 }

// retainUnguarded recycles the frame whatever the predicate said.
func retainUnguarded(c *Comm, data []byte, keep *[]byte) {
	if retainsFrame(data[0]) {
		*keep = data[1:]
	}
	c.Release(data) // want `Release outside .if !retains`
}

// retainWrongBranch releases exactly the frames the predicate retains.
func retainWrongBranch(c *Comm, data []byte) {
	if retainsFrame(data[0]) {
		c.Release(data) // want `Release outside .if !retains`
	}
}
