package trace

import (
	"testing"
)

func TestRunsCountingUnit(t *testing.T) {
	dims := []int64{4, 6, 8}
	cases := []struct {
		shape []int64
		want  int64
	}{
		{[]int64{4, 6, 8}, 1}, // whole array
		{[]int64{2, 6, 8}, 1}, // trailing dims full → rows merge
		{[]int64{2, 3, 8}, 2}, // last dim full: 3 consecutive mid rows merge per outer
		{[]int64{2, 3, 5}, 6}, // partial last dim: every row separate
		{[]int64{1, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := Runs(dims, c.shape); got != c.want {
			t.Errorf("Runs(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
	// Rank-1 and scalar edge cases.
	if Runs([]int64{10}, []int64{3}) != 1 {
		t.Error("a 1-D section is one run")
	}
	if Runs(nil, nil) != 1 {
		t.Error("a scalar section is one run")
	}
}
