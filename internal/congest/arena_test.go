package congest

import "testing"

// TestArenaBlocks pins the Arena's block policy: a type's first block
// holds the bound graph's DegreeSum() elements, so one degree-sized carve
// per node fills it exactly; a carve that does not fit opens a block of
// twice the size; and Reset re-zeroes every carved prefix, so the next
// run's carves, which reuse dirty memory, start zeroed.
func TestArenaBlocks(t *testing.T) {
	a := Arena{first: 10}
	x, y := a.Float64s(4), a.Float64s(6)
	if b := a.f64.blocks; len(b) != 1 || len(b[0]) != 10 || cap(b[0]) != 10 {
		t.Fatalf("carves of 4+6 with first=10 left blocks %v", blockShape(b))
	}
	if cap(x) != 4 || cap(y) != 6 {
		t.Fatalf("carves have capacities %d and %d, want 4 and 6", cap(x), cap(y))
	}
	z := a.Float64s(3)
	if b := a.f64.blocks; len(b) != 2 || len(b[1]) != 3 || cap(b[1]) != 20 {
		t.Fatalf("a carve past the first block left blocks %v, want a second of 20", blockShape(b))
	}
	for _, s := range [][]float64{x, y, z} {
		for i := range s {
			s[i] = 1
		}
	}

	a.Reset()
	if b := a.f64.blocks; len(b[0]) != 0 || len(b[1]) != 0 {
		t.Fatalf("Reset left carved prefixes %v", blockShape(b))
	}
	for _, n := range []int{10, 3} {
		for i, v := range a.Float64s(n) {
			if v != 0 {
				t.Fatalf("carve of %d after Reset holds %g at %d", n, v, i)
			}
		}
	}
	if len(a.f64.blocks) != 2 {
		t.Fatalf("warm carves allocated: %d blocks", len(a.f64.blocks))
	}
}

// blockShape lists each block's carved length and capacity.
func blockShape(blocks [][]float64) [][2]int {
	shape := make([][2]int, len(blocks))
	for i, b := range blocks {
		shape[i] = [2]int{len(b), cap(b)}
	}
	return shape
}
