package emit

import (
	"fmt"
	"io"
	"sort"
)

// DumpBad writes rows in map iteration order.
func DumpBad(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// KeysBad returns keys in map iteration order.
func KeysBad(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// KeysGood collects, sorts, then returns — the sanctioned idiom.
//
// ok: maporder
func KeysGood(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DumpGood emits in sorted key order.
//
// ok: maporder
func DumpGood(w io.Writer, m map[string]int) {
	for _, k := range KeysGood(m) {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}
