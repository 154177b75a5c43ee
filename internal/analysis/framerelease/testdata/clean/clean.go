package clean

func process(b []byte) {}

// ok releases after the last use on the success path; the unused error
// path owes nothing.
func ok(c *Comm) (byte, error) {
	data, _, err := c.Recv(0, 0)
	if err != nil {
		return 0, err
	}
	v := data[0]
	c.Release(data)
	return v, nil
}

// okDefer discharges via defer while still using the frame afterwards.
func okDefer(c *Comm) int {
	data, _, _ := c.Recv(0, 0)
	defer c.Release(data)
	return len(data)
}

// okReturn transfers ownership to the caller.
func okReturn(c *Comm) []byte {
	data, _, _ := c.Recv(0, 0)
	return data
}

// okStore transfers the slice header into a pinned list.
func okStore(c *Comm, pinned *[][]byte) int {
	data, _, _ := c.Recv(0, 0)
	*pinned = append(*pinned, data)
	return len(data)
}

// okCopy copies the bytes out (a use) and then releases.
func okCopy(c *Comm) []byte {
	data, _, _ := c.Recv(0, 0)
	out := append([]byte(nil), data...)
	c.Release(data)
	return out
}

// okLoop is the server-loop shape: every iteration releases on every
// continuing path.
func okLoop(c *Comm) error {
	for {
		data, st, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if st.Tag == 1 {
			c.Release(data)
			return nil
		}
		process(data)
		c.Release(data)
	}
}

// retainsFrame is a retention predicate: a frame carrying op 3 keeps
// slices into it alive past handling.
func retainsFrame(op byte) bool { return op == 3 }

// okRetain is the request-frame shape: one decision, at the predicate.
func okRetain(c *Comm, data []byte, keep *[]byte) {
	if data[0] == 3 {
		*keep = data[1:]
	}
	if !retainsFrame(data[0]) {
		c.Release(data)
	}
}
