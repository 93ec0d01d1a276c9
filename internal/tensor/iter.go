package tensor

// Iterator walks a multi-dimensional index space in row-major order. It is
// the workhorse behind block copies, the reference einsum, and the
// out-of-core execution engine's tile loops.
type Iterator struct {
	dims    []int
	idx     []int
	offset  int
	started bool
	done    bool
}

// NewIterator returns an iterator over the index space [0,dims[0]) × ... ×
// [0,dims[n-1)). An empty dims iterates exactly once (the scalar index).
func NewIterator(dims []int) *Iterator {
	it := &Iterator{
		dims: append([]int(nil), dims...),
		idx:  make([]int, len(dims)),
	}
	for _, d := range dims {
		if d <= 0 {
			it.done = true
		}
	}
	return it
}

// Next advances to the next index, returning false when the space is
// exhausted. It must be called before the first Index/Offset access.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	if !it.started {
		it.started = true
		return true
	}
	for i := len(it.idx) - 1; i >= 0; i-- {
		it.idx[i]++
		if it.idx[i] < it.dims[i] {
			it.offset++
			return true
		}
		it.idx[i] = 0
	}
	it.done = true
	return false
}

// Index returns the current multi-index. The slice is reused between calls;
// copy it if it must be retained.
func (it *Iterator) Index() []int { return it.idx }

// Offset returns the row-major flat offset of the current index.
func (it *Iterator) Offset() int { return it.offset }
