package exec

import (
	"fmt"
	"io"
	"log"
	"os"
)

// report prints to the terminal from an internal package.
func report(err error) {
	log.Printf("retry failed: %v", err)
	fmt.Fprintf(os.Stderr, "retry failed: %v\n", err)
}

// dump prints to the caller's writer, not the terminal.
//
// ok: obslog
func dump(w io.Writer) { fmt.Fprintf(w, "ok\n") }
