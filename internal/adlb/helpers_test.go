package adlb

import "repro/internal/chunk"

// oneRow is v's one-row chunk, for tests that build frames.
func oneRow(v Value) (chunk.Chunk, error) {
	var c chunk.Chunk
	err := row(&v, &c)
	return c, err
}

// storeSize is how many datums exist in s's store.
func storeSize(s *server) int {
	n := 0
	s.store.each(func(int64, *datum) { n++ })
	return n
}

// decodedChunk decodes a chunk frame into a fresh chunk.
func decodedChunk(d *decoder) chunk.Chunk {
	var c chunk.Chunk
	decodeChunk(d, &c)
	return c
}
