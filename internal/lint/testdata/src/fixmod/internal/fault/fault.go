package fault

// ErrInjected is a sentinel.
var ErrInjected error

// injected compares with the sentinel on the left and !=.
func injected(e error) bool { return ErrInjected != e }
