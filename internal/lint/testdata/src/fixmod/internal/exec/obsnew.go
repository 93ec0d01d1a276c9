package exec

import "fixmod/internal/obs"

// Instruments built around the registry.
var (
	lit   = &obs.Counter{}
	alloc = new(obs.Counter)
)

// byName is a container of instrument pointers.
//
// ok: obsnew
var byName = map[string]*obs.Counter{}
