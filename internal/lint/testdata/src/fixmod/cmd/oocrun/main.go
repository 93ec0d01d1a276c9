// Command oocrun owns the terminal: errprefix and obslog skip cmd/.
package main

import (
	"fmt"
	"log"
	"os"
)

// Parse needs no package prefix outside internal/.
//
// ok: errprefix
func Parse(s string) error { return fmt.Errorf("bad input %q", s) }

// report prints for the operator.
//
// ok: obslog
func report(err error) {
	log.Printf("retry failed: %v", err)
	fmt.Fprintf(os.Stderr, "retry failed: %v\n", err)
}

func main() { report(Parse("x")) }
