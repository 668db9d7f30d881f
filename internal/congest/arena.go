package congest

// Arena is a run-scoped typed-slab allocator. A run carves per-node
// slices out of a few large backing blocks per element type, so the
// per-node `make` calls that used to dominate a run's allocation count —
// one neighbor cache per node per algorithm — collapse into a few block
// allocations that a reused Runner amortizes across runs. Every carve in
// the repo is degree-sized, so each type's first block holds the bound
// graph's DegreeSum() elements: a proc that carves one cache of its degree
// fills it exactly, with no slack.
//
// Procs reach the arena through NodeInfo.Arena and must carve only while
// their Factory runs (the engine constructs procs sequentially before
// round 0; Step executes on worker goroutines, and the arena is not
// goroutine-safe). Carved slices are zeroed, are valid for the duration of
// the run, and must not be referenced from a Result — the owning Runner
// recycles the blocks on its next run.
type Arena struct {
	first int // elements in each type's first block: the bound graph's DegreeSum()
	f64   slab[float64]
	i64   slab[int64]
	i32   slab[int32]
	ints  slab[int]
	bools slab[bool]
}

// Float64s carves a zeroed []float64 of length and capacity n.
func (a *Arena) Float64s(n int) []float64 { return a.f64.alloc(n, a.first) }

// Int64s carves a zeroed []int64 of length and capacity n.
func (a *Arena) Int64s(n int) []int64 { return a.i64.alloc(n, a.first) }

// Int32s carves a zeroed []int32 of length and capacity n.
func (a *Arena) Int32s(n int) []int32 { return a.i32.alloc(n, a.first) }

// Ints carves a zeroed []int of length and capacity n.
func (a *Arena) Ints(n int) []int { return a.ints.alloc(n, a.first) }

// Bools carves a zeroed []bool of length and capacity n.
func (a *Arena) Bools(n int) []bool { return a.bools.alloc(n, a.first) }

// Reset recycles every block for the next run: carve cursors rewind and
// the carved memory is re-zeroed, so the next run's carves see zero values
// again. Only what was carved is cleared, so a Runner whose blocks were
// sized by a large graph does not clear them whole before each small run.
// The caller (the Runner) must guarantee no slice carved before the Reset
// is still in use.
func (a *Arena) Reset() {
	a.f64.reset()
	a.i64.reset()
	a.i32.reset()
	a.ints.reset()
	a.bools.reset()
}

// slab is one element type's block list. A block's length is its carved
// prefix and its capacity its size. Blocks are retained across resets, so
// a warmed-up slab allocates nothing.
type slab[T any] struct {
	blocks [][]T
	bi     int // block currently being carved
}

// alloc carves n elements, from a new block of at least first elements
// when none is left with room. Later blocks double, so the block count
// stays logarithmic in the volume carved whatever the procs request.
func (s *slab[T]) alloc(n, first int) []T {
	if n == 0 {
		return nil
	}
	for ; s.bi < len(s.blocks); s.bi++ {
		if b := s.blocks[s.bi]; len(b)+n <= cap(b) {
			s.blocks[s.bi] = b[:len(b)+n]
			return b[len(b) : len(b)+n : len(b)+n]
		}
	}
	size := first
	if k := len(s.blocks); k > 0 {
		size = max(size, 2*cap(s.blocks[k-1]))
	}
	b := make([]T, n, max(size, n))
	s.blocks = append(s.blocks, b)
	return b[:n:n]
}

// reset re-zeroes each block's carved prefix and empties it. The capacity
// past it was never handed out, so it is still zero.
func (s *slab[T]) reset() {
	for i, b := range s.blocks {
		clear(b)
		s.blocks[i] = b[:0]
	}
	s.bi = 0
}
