package bad

// frameLeak fills a frame and drops it.
func frameLeak(c *Comm) int {
	buf := c.Frame(8)
	buf = append(buf, 1)
	return len(buf) // want `frame "buf" from Comm.Frame is used on this path but never sent or Released`
}

// errorPathLeak sends the frame on one path only.
func errorPathLeak(c *Comm, ok bool) error {
	buf := c.Frame(8)
	buf = append(buf, 1)
	if !ok {
		return nil // want `frame "buf" from Comm.Frame is used on this path but never sent or Released`
	}
	return c.SendFrame(0, 1, buf)
}

// useAfterSend reads the frame the receiver owns.
func useAfterSend(c *Comm) (byte, error) {
	buf := c.Frame(8)
	buf = append(buf, 1)
	err := c.SendFrame(0, 1, buf)
	return buf[0], err // want `frame "buf" used after SendFrame`
}

// sendTwice hands one frame to two receivers.
func sendTwice(c *Comm) error {
	buf := c.Frame(8)
	view := buf
	if err := c.SendFrame(0, 1, view); err != nil {
		return err
	}
	return c.SendFrame(1, 1, buf) // want `frame "buf" sent after it was already sent or Released`
}

// releaseAfterSend gives back a frame the receiver owns.
func releaseAfterSend(c *Comm) {
	buf := c.Frame(8)
	_ = c.SendFrame(0, 1, buf)
	c.Release(buf) // want `frame "buf" Released after SendFrame`
}

// escapeAfterSend keeps a view into a sent frame.
func escapeAfterSend(c *Comm, h *holder) {
	data, _, _ := c.Recv(0, 0)
	_ = c.SendFrame(1, 0, data)
	h.b = data // want `frame "data" escapes after SendFrame`
}
