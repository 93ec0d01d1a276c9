package obs

// chunkBits sets the records per chunk of a chunkLog (1 << chunkBits).
const chunkBits = 10

// chunkLog is an append-only sequence of records in fixed-size chunks,
// the store of Tracer's event log: an append never copies what is
// stored, and a pointer-free T keeps the chunks out of the garbage
// collector's scan. The zero value is ready to use; it is not safe for
// concurrent use.
type chunkLog[T any] struct {
	chunks [][]T
	n      int
}

// Append stores v at index Len().
func (c *chunkLog[T]) Append(v T) {
	if c.n>>chunkBits == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, 1<<chunkBits))
	}
	c.chunks[c.n>>chunkBits][c.n&(1<<chunkBits-1)] = v
	c.n++
}

// At returns the record at index i < Len().
func (c *chunkLog[T]) At(i int) T { return c.chunks[i>>chunkBits][i&(1<<chunkBits-1)] }

// Len returns the number of records.
func (c *chunkLog[T]) Len() int { return c.n }

// Reset empties the sequence, keeping its chunks for the next records.
func (c *chunkLog[T]) Reset() { c.n = 0 }

// Key is an interned string; 0 is the empty string.
type Key uint32

// interner interns strings as Keys, so that pointer-free records can
// name them. The zero value is ready to use; it is not safe for
// concurrent use.
type interner struct {
	ids  map[string]Key
	strs []string
}

// Key returns str's key, interning str on first use.
func (s *interner) Key(str string) Key {
	if s.strs == nil {
		s.ids, s.strs = map[string]Key{"": 0}, []string{""}
	}
	k, ok := s.ids[str]
	if !ok {
		k = Key(len(s.strs))
		s.ids[str] = k
		s.strs = append(s.strs, str)
	}
	return k
}

// String returns the string a key from Key stands for.
func (s *interner) String(k Key) string { return s.strs[k] }
