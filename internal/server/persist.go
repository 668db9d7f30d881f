package server

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"arbods"
	"arbods/internal/faultinject"
	"arbods/internal/graph"
)

// persistStore is the crash-safe on-disk mirror of the graph cache. Every
// uploaded or name-built graph is snapshotted as its self-checksummed
// ARBCSR01 blob (see graph.EncodeBinary) under <dir>/graphs/<hex>.csr,
// where sha256:<hex> is the graph's ID and so the hash of the file's own
// bytes, plus one row in <dir>/index.json, which carries the metadata the
// cache needs to restore an entry without recomputing it (name key,
// certified α bound, degeneracy) and its own CRC-32C over the entry rows.
//
// Every write is atomic: temp file in the same directory, fsync, rename.
// A crash — SIGKILL included — therefore leaves either the old file or the
// new one, never a torn write, and the worst case after a mid-save crash
// is a blob without an index row, which the dir-scan fallback recovers.
//
// Loads trust nothing: a blob must pass its checksum and structural
// validation, and its content hash must equal the id the index claims.
// Anything that fails is logged as an event=snapshot_corrupt record,
// removed, and simply rebuilt from source on its next request — corruption
// costs one cold build, never an inconsistent answer.
type persistStore struct {
	dir    string
	logf   func(format string, args ...any)
	faults *faultinject.Registry

	mu    sync.Mutex // serializes index writes
	index map[string]persistEntry

	loaded atomic.Int64 // graphs restored at startup
	saves  atomic.Int64 // snapshots written
	errs   atomic.Int64 // failed snapshot writes or corrupt loads
}

// persistEntry is one index.json row.
type persistEntry struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Bound int    `json:"bound,omitempty"`
	Degen int    `json:"degen,omitempty"`
}

// persistIndex is the index.json envelope; CRC is CRC-32C over the
// marshaled Entries array, so a torn or hand-edited index is detected and
// the loader falls back to scanning the blobs.
type persistIndex struct {
	Version int            `json:"version"`
	CRC     uint32         `json:"crc"`
	Entries []persistEntry `json:"entries"`
}

// persistVersion 2 names graphs by graph.ID (sha256 over ARBCSR01).
// Version 1 data dirs named them by a hash of the text encoding: their
// index is rejected, and each rescanned blob fails its content-hash check
// and is dropped as corrupt, so no old ID is ever served.
const persistVersion = 2

var persistCRCTable = crc32.MakeTable(crc32.Castagnoli)

func newPersistStore(dir string, logf func(string, ...any), faults *faultinject.Registry) (*persistStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "graphs"), 0o755); err != nil {
		return nil, fmt.Errorf("snapshot dir: %w", err)
	}
	return &persistStore{dir: dir, logf: logf, faults: faults, index: make(map[string]persistEntry)}, nil
}

// blobPath maps a graph id ("sha256:<hex>") to its snapshot file.
func (p *persistStore) blobPath(id string) string {
	return filepath.Join(p.dir, "graphs", strings.TrimPrefix(id, "sha256:")+".csr")
}

// load restores every intact snapshot, in index order when the index is
// readable and by directory scan when it is not. Corrupt blobs are logged
// and removed so the next boot is clean.
func (p *persistStore) load() []*graphEntry {
	rows, indexOK := p.readIndex()
	if !indexOK {
		rows = p.scanBlobs()
	}
	entries := make([]*graphEntry, 0, len(rows))
	for _, row := range rows {
		e, err := p.loadBlob(row)
		if err != nil {
			p.errs.Add(1)
			p.logf("event=snapshot_corrupt id=%s err=%q", row.ID, err.Error())
			os.Remove(p.blobPath(row.ID))
			continue
		}
		p.index[row.ID] = row
		entries = append(entries, e)
		p.loaded.Add(1)
	}
	if !indexOK && len(entries) > 0 {
		// The rescued entries deserve a fresh index so the next boot does
		// not pay the scan (and the recomputed metadata) again.
		p.mu.Lock()
		if err := p.writeIndex(); err != nil {
			p.errs.Add(1)
			p.logf("event=snapshot_index_error err=%q", err.Error())
		}
		p.mu.Unlock()
	}
	return entries
}

// readIndex parses index.json; ok is false when the file is absent,
// unparsable, fails its CRC, or has the wrong version — every one of which
// sends the loader to the blob scan.
func (p *persistStore) readIndex() ([]persistEntry, bool) {
	path := filepath.Join(p.dir, "index.json")
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			p.errs.Add(1)
			p.logf("event=snapshot_corrupt file=index.json err=%q", err.Error())
		}
		return nil, false
	}
	var idx persistIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		p.errs.Add(1)
		p.logf("event=snapshot_corrupt file=index.json err=%q", err.Error())
		return nil, false
	}
	if idx.Version != persistVersion || idx.CRC != indexCRC(idx.Entries) {
		p.errs.Add(1)
		p.logf("event=snapshot_corrupt file=index.json err=%q", "version or checksum mismatch")
		return nil, false
	}
	return idx.Entries, true
}

// scanBlobs is the index-less fallback: every *.csr blob that decodes
// becomes a row with recomputed metadata (name keys are gone — they lived
// only in the index — so rescued graphs serve by content hash).
func (p *persistStore) scanBlobs() []persistEntry {
	matches, _ := filepath.Glob(filepath.Join(p.dir, "graphs", "*.csr"))
	sort.Strings(matches)
	rows := make([]persistEntry, 0, len(matches))
	for _, m := range matches {
		rows = append(rows, persistEntry{ID: "sha256:" + strings.TrimSuffix(filepath.Base(m), ".csr"), Degen: -1})
	}
	if len(rows) > 0 {
		p.logf("event=snapshot_rescan blobs=%d reason=index_unreadable", len(rows))
	}
	return rows
}

// loadBlob decodes and cross-checks one snapshot, rebuilding the cache
// entry. Degen < 0 marks a rescanned row whose metadata must be
// recomputed.
func (p *persistStore) loadBlob(row persistEntry) (*graphEntry, error) {
	data, err := os.ReadFile(p.blobPath(row.ID))
	if err != nil {
		return nil, err
	}
	g, id, err := graph.DecodeBinaryID(data)
	if err != nil {
		return nil, err
	}
	if id != row.ID {
		return nil, fmt.Errorf("content hash %s does not match snapshot id", id)
	}
	if row.Degen < 0 {
		return buildEntry(g, id, "", 0), nil
	}
	return &graphEntry{id: id, name: row.Name, g: g, bound: row.Bound, degen: row.Degen}, nil
}

// save snapshots one cache entry: blob first (skipped when already on
// disk — blobs are content-addressed and immutable), then the index row.
// Failures are counted and logged but never fail the request that
// triggered the save: persistence is a durability upgrade, not a
// serving dependency.
func (p *persistStore) save(e graphEntry) {
	if err := p.trySave(e); err != nil {
		p.errs.Add(1)
		p.logf("event=snapshot_error id=%s err=%q", e.id, err.Error())
		return
	}
	p.saves.Add(1)
}

func (p *persistStore) trySave(e graphEntry) error {
	if err := p.faults.Fire("persist.writeBlob"); err != nil {
		return err
	}
	blob := p.blobPath(e.id)
	if _, err := os.Stat(blob); err != nil {
		if err := atomicWrite(blob, func(f *os.File) error {
			return arbods.EncodeGraphBinary(f, e.g)
		}); err != nil {
			return fmt.Errorf("write blob: %w", err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	row := persistEntry{ID: e.id, Name: e.name, Bound: e.bound, Degen: e.degen}
	if old, ok := p.index[e.id]; ok && old == row {
		return nil // re-upload of a resident graph: nothing changed
	}
	p.index[e.id] = row
	if err := p.faults.Fire("persist.writeIndex"); err != nil {
		return err
	}
	if err := p.writeIndex(); err != nil {
		return fmt.Errorf("write index: %w", err)
	}
	return nil
}

// writeIndex marshals the in-memory index (sorted by id, so the file is
// deterministic) and writes it atomically. Callers hold p.mu.
func (p *persistStore) writeIndex() error {
	rows := make([]persistEntry, 0, len(p.index))
	for _, row := range p.index {
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	idx := persistIndex{Version: persistVersion, CRC: indexCRC(rows), Entries: rows}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(p.dir, "index.json"), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// indexCRC is the integrity checksum over the index rows: CRC-32C of
// their canonical JSON.
func indexCRC(rows []persistEntry) uint32 {
	data, err := json.Marshal(rows)
	if err != nil {
		return 0
	}
	return crc32.Checksum(data, persistCRCTable)
}

// atomicWrite writes via a temp file in the target's directory, fsyncs,
// and renames into place, so the target is replaced all-or-nothing even
// across a hard kill.
func atomicWrite(path string, fill func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// counters reports (loaded, saves, errors) for /v1/stats; safe on nil.
func (p *persistStore) counters() (loaded, saves, errs int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.loaded.Load(), p.saves.Load(), p.errs.Load()
}
