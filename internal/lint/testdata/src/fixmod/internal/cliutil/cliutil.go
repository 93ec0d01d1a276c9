package cliutil

import (
	"fmt"
	"os"
)

// fatal carries a justified suppression.
//
// ok: obslog
func fatal(err error) {
	//lint:ignore obslog the CLI fatal path prints for the operator
	fmt.Fprintf(os.Stderr, "%v\n", err)
}
