package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// RingSpec is the parsed form of the -ring flag: the shape of the
// replicated sharded data plane a run should execute against.
type RingSpec struct {
	// Shards is the number of shard backends the ring distributes each
	// array's blocks over (the flag's P key).
	Shards int
	// Replicas is the replication factor: how many distinct shards
	// hold a copy of each block (the flag's R key).
	Replicas int
}

// String renders the spec in the flag syntax (a ParseRingSpec fixpoint).
func (r RingSpec) String() string {
	return fmt.Sprintf("P=%d,R=%d", r.Shards, r.Replicas)
}

// ParseRingSpec parses the -ring flag syntax, e.g. "P=8,R=2":
// comma-separated key=value pairs with keys P (shard count) and R
// (replication factor), case-insensitive. Omitted keys default to
// P=8, R=2. Structural validation beyond positivity (R <= P, minimum
// shard count) is ring.New's job, so its errors stay in one place.
func ParseRingSpec(spec string) (RingSpec, error) {
	out := RingSpec{Shards: 8, Replicas: 2}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return out, fmt.Errorf("cliutil: empty ring spec")
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return out, fmt.Errorf("cliutil: ring spec entry %q is not key=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		n, err := strconv.Atoi(v)
		if err == nil && n <= 0 {
			err = fmt.Errorf("cliutil: must be positive")
		}
		if err != nil {
			return out, fmt.Errorf("cliutil: ring spec %s=%q: %w", k, v, err)
		}
		switch strings.ToLower(k) {
		case "p", "shards":
			out.Shards = n
		case "r", "replicas":
			out.Replicas = n
		default:
			return out, fmt.Errorf("cliutil: unknown ring spec key %q", k)
		}
	}
	return out, nil
}
