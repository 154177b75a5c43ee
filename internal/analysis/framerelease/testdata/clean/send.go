package clean

// sendFilled fills a frame and hands it over.
func sendFilled(c *Comm, data []byte) error {
	buf := c.Frame(len(data))
	buf = append(buf, data...)
	return c.SendFrame(0, 1, buf)
}

// sendOrRelease hands the frame over, or back to the pool when there is
// nothing to send.
func sendOrRelease(c *Comm, empty bool) error {
	buf := c.Frame(8)
	if empty {
		c.Release(buf)
		return nil
	}
	buf = append(buf, 1)
	return c.SendFrame(0, 1, buf)
}

// forward hands a received frame on to another rank, unread.
func forward(c *Comm) error {
	data, _, err := c.Recv(0, 0)
	if err != nil {
		return err
	}
	return c.SendFrame(1, 0, data)
}

// builder keeps its frame in a field: ownership moved to it.
type builder struct{ buf []byte }

func (b *builder) open(c *Comm) {
	buf := c.Frame(64)
	b.buf = buf
}
