package tce

import (
	"errors"
	"fmt"
)

// Parse's error text lacks the package prefix.
func Parse(s string) error {
	return fmt.Errorf("bad input %q", s)
}

// Explode's errors.New is held to the same rule.
func Explode() error { return errors.New("boom") }

// Check's error text carries the prefix.
//
// ok: errprefix
func Check(s string) error { return fmt.Errorf("tce: bad input %q", s) }

// parse is unexported: its errors are wrapped at the exported boundary.
//
// ok: errprefix
func parse(s string) error { return fmt.Errorf("bad input %q", s) }

// Fail's format is not a literal, so it cannot be checked.
//
// ok: errprefix
func Fail(msg string) error { return fmt.Errorf(msg) }
