//go:build !amd64

package tensor

// Without assembly kernels the unit-stride leaves are the Go loops, and
// nest2 runs the loop around a held leaf itself.
var (
	heldFirst, heldSecond         leafFunc = heldFirstGo, heldSecondGo
	axpyFirst, axpySecond         leafFunc = axpyFirstGo, axpySecondGo
	heldFirstFold, heldSecondFold foldFunc
)
