package core

import (
	"testing"

	"repro/internal/trace"
)

func TestRunsCounting(t *testing.T) {
	dims := []int64{10, 20, 30}
	cases := []struct {
		shape []int64
		want  int64
	}{
		{[]int64{10, 20, 30}, 1}, // whole array: one run
		{[]int64{2, 20, 30}, 1},  // full trailing dims merge
		{[]int64{2, 5, 30}, 2},   // full last dim: 5 consecutive rows merge per i0
		{[]int64{2, 5, 7}, 10},   // partial last dim: 2×5 rows
		{[]int64{1, 1, 1}, 1},    // single element
	}
	for _, c := range cases {
		if got := trace.Runs(dims, c.shape); got != c.want {
			t.Errorf("Runs(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}
