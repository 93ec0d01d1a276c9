package cliutil

import "testing"

// FuzzParseRingSpec checks the -ring flag parser on arbitrary input: it
// never panics, every accepted spec has a positive shard count and
// replication factor, and the rendered spec is a fixpoint of
// parse∘render that gives back the same spec.
func FuzzParseRingSpec(f *testing.F) {
	f.Add("P=8,R=2")
	f.Add("p=16, r=3")
	f.Add("shards=4,replicas=1")
	f.Add("R=3")
	f.Add("P=12,P=5")
	f.Add("")
	f.Add("P")
	f.Add("P=0")
	f.Add("R=-2")
	f.Add("P=+7")
	f.Add("P=9223372036854775807")
	f.Add("P=8;R=2")
	f.Fuzz(func(t *testing.T, spec string) {
		rs, err := ParseRingSpec(spec)
		if err != nil {
			return
		}
		if rs.Shards <= 0 || rs.Replicas <= 0 {
			t.Fatalf("accepted spec %q yields non-positive %+v", spec, rs)
		}
		rendered := rs.String()
		back, err := ParseRingSpec(rendered)
		if err != nil {
			t.Fatalf("accepted spec %q renders as %q which does not re-parse: %v", spec, rendered, err)
		}
		if back != rs {
			t.Fatalf("spec %q parsed to %+v, its rendering %q to %+v", spec, rs, rendered, back)
		}
		if again := back.String(); again != rendered {
			t.Fatalf("rendered spec is not a round-trip fixpoint:\n spec: %q\n once: %q\n twice: %q", spec, rendered, again)
		}
	})
}
