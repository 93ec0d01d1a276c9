package disk

// The store manifest is the FileStore's crash-consistent catalogue: a
// JSON file listing every array the store knows about with its extents,
// on-disk format, and checksum granularity. It is only ever replaced
// atomically (write-temp + rename), so a reader either sees the previous
// complete manifest or the new one — never a torn mix. Reopen validates
// the directory's files against it before trusting them.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifestName is the manifest's file name inside the store directory.
const manifestName = "MANIFEST.json"

// manifestVersion is the current manifest schema version.
const manifestVersion = 2

// manifest is the on-disk catalogue of a FileStore directory.
type manifest struct {
	Version int                      `json:"version"`
	Arrays  map[string]manifestEntry `json:"arrays"`
}

// manifestEntry describes one array in the manifest.
type manifestEntry struct {
	Dims       []int64 `json:"dims"`
	BlockElems int64   `json:"block_elems"`
	// Format is always "dra2", the one array format.
	Format string `json:"format"`
}

// loadManifest reads the store manifest, returning (nil, nil) when the
// directory has none (a brand-new store, or one whose arrays were all
// written outside it).
func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("disk: store manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("disk: store manifest %s is corrupt: %w", filepath.Join(dir, manifestName), err)
	}
	if m.Version <= 0 || m.Version > manifestVersion {
		return nil, fmt.Errorf("disk: store manifest has unsupported version %d", m.Version)
	}
	if m.Arrays == nil {
		m.Arrays = map[string]manifestEntry{}
	}
	return &m, nil
}

// writeManifest atomically replaces the store manifest.
func writeManifest(dir string, m *manifest) error {
	m.Version = manifestVersion
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("disk: store manifest: %w", err)
	}
	return atomicWrite(filepath.Join(dir, manifestName), append(raw, '\n'))
}

// atomicWrite replaces path with data via write-temp + fsync + rename,
// so the file at path is always a complete previous or complete new
// version, never a torn write.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("disk: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("disk: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("disk: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("disk: %w", err)
	}
	return nil
}

// validateManifest cross-checks every manifest entry against the files
// actually present. A listed array whose .dra file is gone entirely was
// deleted out-of-band (re-running a saved plan deletes its outputs
// first); the entry is pruned so the store treats the array as removed.
// A file that exists but whose self-describing header disagrees with
// the catalogue is an error — that mismatch is the corruption this
// check exists to catch. Files not listed in the manifest are ignored
// until Open adopts them.
func validateManifest(dir string, m *manifest) (pruned bool, err error) {
	names := make([]string, 0, len(m.Arrays))
	for name := range m.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ent := m.Arrays[name]
		path := filepath.Join(dir, name+".dra")
		if _, serr := os.Stat(path); os.IsNotExist(serr) {
			delete(m.Arrays, name)
			os.Remove(filepath.Join(dir, name+".sum")) // orphan sidecar
			pruned = true
			continue
		}
		dims, blockElems, err := readHeader(path)
		if err != nil {
			return false, fmt.Errorf("disk: store manifest lists %q but %w", name, err)
		}
		if len(dims) != len(ent.Dims) {
			return false, fmt.Errorf("disk: store manifest says %q has rank %d but the file has rank %d", name, len(ent.Dims), len(dims))
		}
		for i := range dims {
			if dims[i] != ent.Dims[i] {
				return false, fmt.Errorf("disk: store manifest says %q has dims %v but the file has %v", name, ent.Dims, dims)
			}
		}
		if blockElems != ent.BlockElems {
			return false, fmt.Errorf("disk: store manifest says %q uses %d-element blocks but the file says %d", name, ent.BlockElems, blockElems)
		}
	}
	return pruned, nil
}
