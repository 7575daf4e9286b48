// Package resultstore is the persistent tier of the evaluation cache:
// a disk-backed, content-addressed, append-only log of core.Reports
// keyed by a canonical digest of the full (System, Workload)
// configuration. The in-process evalpool cache dies with the process,
// so every CLI invocation and CI run re-pays the whole exact-simulation
// bill; a Store opened on a cache directory makes sweeps incremental
// across runs — a configuration simulated once is never simulated
// again on that machine until the digest version changes.
//
// Design points:
//
//   - Content addressing reuses the canonicalization pattern of
//     hw.TableNetwork: a sha256 over an exact, deterministic rendering
//     of every field of the configuration. Two Points collide on one
//     entry exactly when the evalpool cache would have shared them.
//   - The digest is versioned (DigestVersion participates in the hash,
//     the digest string, the log filename, and every record), so any
//     format or semantics change invalidates old entries cleanly
//     instead of serving stale results.
//   - The log is append-only JSON lines with a per-record CRC. A
//     truncated or corrupt record — a crashed writer, a torn page — is
//     skipped (the configuration is simply re-simulated), never fatal.
//   - Reports whose system routes over an explicit per-edge table
//     (hw.NetTable) persist the table wiring alongside the entry, so a
//     cold process rehydrates the registry before serving table-backed
//     configurations.
//   - Errors are never persisted: a failed evaluation may be transient
//     (or fixed by the next release), so only successful reports reach
//     the log.
//
// Concurrency: a Store is safe for concurrent use, and two Stores (or
// two processes) appending to the same directory interleave cleanly —
// every record is one O_APPEND write of one complete line, and readers
// tolerate duplicate entries (content addressing makes them
// identical).
package resultstore

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// DigestVersion is the version of the digest scheme and the log
// format. Bump it whenever the canonical rendering, the report schema,
// or the simulator's semantics change in a way that should invalidate
// cached results; old entries (and old log files, which carry the
// version in their name) are then ignored wholesale.
//
// v2: core.Workload gained the Batch field (decode micro-batch
// width), which changes the canonical %#v rendering of every
// workload.
//
// v3: hw.Params gained the Mem hierarchy (profile, DRAM channel,
// prefetch depth, SRAM banks, per-family tilings, DRAM energy), which
// changes the canonical rendering of every system.
const DigestVersion = 3

// Digest returns the canonical content address of one evaluation
// point: a versioned sha256 over an exact rendering of every System
// and Workload field (Go-syntax formatting reaches unexported fields
// like the collective plan's binding array, and float64 values render
// in shortest-round-trip form, so distinct bit patterns yield distinct
// digests). Two configurations digest equally exactly when the
// in-process evalpool cache would have shared their entry.
func Digest(sys core.System, wl core.Workload) string {
	h := sha256.New()
	fmt.Fprintf(h, "mcudist-resultstore/v%d\x00%#v\x00%#v\x00", DigestVersion, sys, wl)
	return fmt.Sprintf("v%d-%x", DigestVersion, h.Sum(nil))
}

// record is one line of the append-only log.
type record struct {
	// Kind is "report" or "table".
	Kind string `json:"kind"`
	// V is the digest/format version the record was written under;
	// records from other versions are ignored on read.
	V int `json:"v"`

	// Report records: the configuration digest, the CRC-32 (IEEE) of
	// the raw report bytes, and the report itself.
	Digest string          `json:"digest,omitempty"`
	CRC    uint32          `json:"crc,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`

	// Table records: the hw.TableNetwork content digest and the edge
	// list needed to re-register it in a cold process.
	Table string      `json:"table,omitempty"`
	Edges []tableEdge `json:"edges,omitempty"`
}

// tableEdge is one wired edge of a persisted per-edge link table.
type tableEdge struct {
	From  int          `json:"from"`
	To    int          `json:"to"`
	Class hw.LinkClass `json:"class"`
}

// entryRef locates one report record inside the log.
type entryRef struct {
	offset int64
	length int
}

// Store is a handle on one cache directory's append-only result log.
// The zero value is not usable; construct with Open.
type Store struct {
	dir  string
	path string

	mu       sync.Mutex
	file     *os.File // O_APPEND write handle
	index    map[string]entryRef
	tables   map[string]bool // table digests already persisted
	skipped  int             // corrupt/truncated/foreign-version records ignored on open
	tornTail bool            // log ends mid-record (a writer died); heal before appending
}

// Open opens (creating if needed) the result store under dir. The
// whole log is scanned once: report records are indexed by digest
// from their envelope (the report JSON is decoded only by Load),
// table records re-register their per-edge wirings, and records that
// are truncated, corrupt, or from another digest version are counted
// and skipped — a damaged log degrades to extra simulations, never to
// an error or a wrong result.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("results-v%d.log", DigestVersion))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		path:   path,
		file:   f,
		index:  map[string]entryRef{},
		tables: map[string]bool{},
	}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan reads the existing log and builds the digest index.
func (s *Store) scan() error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	// Report lines are indexed in the reader's buffer; longer lines (a
	// 64-chip table record reaches 400 KB) gather into one reused buffer.
	r := bufio.NewReaderSize(f, 64<<10)
	var long []byte
	var offset int64
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) == 0 && err != nil {
			break
		}
		length := len(line)
		complete := err == nil // a line without its newline is a torn tail write
		s.tornTail = !complete
		s.indexLine(line, offset, length, complete)
		offset += int64(length)
		if err != nil {
			break
		}
	}
	return nil
}

// indexLine folds one log line into the index; anything unparseable
// is skipped. A report record is indexed from its envelope alone; a
// table record takes the full JSON decode.
func (s *Store) indexLine(line []byte, offset int64, length int, complete bool) {
	if !complete {
		s.skipped++
		return
	}
	if digest, _, ok := decodeReportLine(line); ok {
		s.index[digest] = entryRef{offset: offset, length: length}
		return
	}
	var rec record
	switch {
	case json.Unmarshal(line, &rec) != nil:
		s.skipped++
	case rec.V == DigestVersion && rec.Kind == "table":
		edges := make(map[hw.Edge]hw.LinkClass, len(rec.Edges))
		for _, e := range rec.Edges {
			edges[hw.Edge{From: e.From, To: e.To}] = e.Class
		}
		net, err := hw.TableNetwork(edges)
		if err != nil || net.TableDigest != rec.Table {
			// The wiring does not reproduce its recorded digest: the
			// record is damaged. TableNetwork interned it under its
			// actual content digest, which no entry references.
			s.skipped++
			return
		}
		s.tables[rec.Table] = true
	default:
		s.skipped++
	}
}

// reportPrefix is the head of every report line Append writes: json.Marshal
// renders record's fields in declaration order, without whitespace.
var reportPrefix = []byte(fmt.Sprintf(`{"kind":"report","v":%d,"digest":"`, DigestVersion))

// decodeReportLine reads a complete report line in exactly the bytes
// Append writes, {"kind":"report","v":<DigestVersion>,"digest":"…",
// "crc":N,"report":{…}} with the crc key absent for a zero CRC, and
// returns its digest and raw report once their CRC checks. It decodes
// no report JSON: the CRC, computed by Append over json.Marshal output,
// stands for the report's well-formedness, and Load's decode answers a
// miss if it ever fails. Any other line (a table record, another
// version, damage, JSON Append would not write, or a digest needing
// escapes) returns ok=false and is not a report of this store.
func decodeReportLine(line []byte) (digest string, body []byte, ok bool) {
	rest, found := bytes.CutPrefix(line, reportPrefix)
	if !found {
		return "", nil, false
	}
	end := bytes.IndexFunc(rest, func(r rune) bool { return r < 0x20 || r > 0x7e || r == '\\' || r == '"' })
	if end <= 0 || rest[end] != '"' {
		return "", nil, false
	}
	digest, rest = string(rest[:end]), rest[end+1:]
	var crc uint64
	if rest, found = bytes.CutPrefix(rest, []byte(`,"crc":`)); found {
		// omitempty drops a zero CRC, so a written one has no leading 0.
		n := 0
		for ; n < len(rest) && '0' <= rest[n] && rest[n] <= '9'; n++ {
			if crc = crc*10 + uint64(rest[n]-'0'); crc > math.MaxUint32 {
				return "", nil, false
			}
		}
		if n == 0 || rest[0] == '0' {
			return "", nil, false
		}
		rest = rest[n:]
	}
	body, found = bytes.CutPrefix(rest, []byte(`,"report":`))
	body, complete := bytes.CutSuffix(body, []byte("}\n"))
	if !found || !complete || len(body) < 2 || body[0] != '{' || body[len(body)-1] != '}' ||
		crc32.ChecksumIEEE(body) != uint32(crc) {
		return "", nil, false
	}
	return digest, body, true
}

// reportBody returns the raw report bytes of one indexed log line, or
// ok=false unless it is an intact report record for digest.
func reportBody(line []byte, digest string) ([]byte, bool) {
	d, body, ok := decodeReportLine(line)
	return body, ok && d == digest
}

// Load returns the persisted report for the configuration, or ok=false
// on a miss (no entry, damaged entry, or read failure — all of which
// the caller answers by simulating). The returned report carries the
// requested System and Workload verbatim, so it is indistinguishable
// from a fresh core.Run result, and must be treated as immutable like
// every cached report.
func (s *Store) Load(sys core.System, wl core.Workload) (*core.Report, bool) {
	digest := Digest(sys, wl)
	s.mu.Lock()
	ref, ok := s.index[digest]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	line := make([]byte, ref.length)
	if _, err := io.ReadFull(io.NewSectionReader(f, ref.offset, int64(ref.length)), line); err != nil {
		return nil, false
	}
	body, ok := reportBody(line, digest)
	if !ok {
		return nil, false
	}
	rep := &core.Report{}
	if json.Unmarshal(body, rep) != nil {
		return nil, false
	}
	// The requested configuration is the key; restating it exactly
	// sidesteps any serialization asymmetry in the System/Workload
	// echo (and makes the report self-describing for the caller).
	rep.System = sys
	rep.Workload = wl
	return rep, true
}

// Contains reports whether the configuration has a persisted entry.
func (s *Store) Contains(sys core.System, wl core.Workload) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[Digest(sys, wl)]
	return ok
}

// Append persists one successful evaluation. Configurations already
// present are not re-written (content addressing makes duplicates
// byte-equivalent), and a system routing over an explicit per-edge
// table writes the table wiring first so the entry is self-contained
// for cold processes. Errors are reported but callers typically treat
// a failed append as a cache-fill miss, not a failure of the
// evaluation itself.
func (s *Store) Append(sys core.System, wl core.Workload, rep *core.Report) error {
	digest := Digest(sys, wl)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[digest]; ok {
		return nil
	}
	if sys.HW.Network.Profile == hw.NetTable {
		if err := s.appendTableLocked(sys.HW.Network.TableDigest); err != nil {
			return err
		}
	}
	rb, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("resultstore: encode report: %w", err)
	}
	line, err := json.Marshal(record{
		Kind:   "report",
		V:      DigestVersion,
		Digest: digest,
		CRC:    crc32.ChecksumIEEE(rb),
		Report: rb,
	})
	if err != nil {
		return fmt.Errorf("resultstore: encode record: %w", err)
	}
	offset, err := s.writeLineLocked(line)
	if err != nil {
		return err
	}
	s.index[digest] = entryRef{offset: offset, length: len(line) + 1}
	return nil
}

// appendTableLocked persists the per-edge wiring registered under the
// given hw table digest, once per store lifetime.
func (s *Store) appendTableLocked(tableDigest string) error {
	if s.tables[tableDigest] {
		return nil
	}
	edges, ok := hw.TableEdges(tableDigest)
	if !ok {
		return fmt.Errorf("resultstore: per-edge table %q is not registered", tableDigest)
	}
	rec := record{Kind: "table", V: DigestVersion, Table: tableDigest}
	for e, c := range edges {
		rec.Edges = append(rec.Edges, tableEdge{From: e.From, To: e.To, Class: c})
	}
	// Canonical edge order, matching hw.TableNetwork's digest walk.
	slices.SortFunc(rec.Edges, func(a, b tableEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: encode table: %w", err)
	}
	if _, err := s.writeLineLocked(line); err != nil {
		return err
	}
	s.tables[tableDigest] = true
	return nil
}

// writeLineLocked appends one record line in a single write (atomic
// under O_APPEND, so concurrent stores on the same directory never
// interleave partial records) and returns the record's offset. If the
// scan found the log ending mid-record — a writer died with its line
// half flushed — the first append leads with a newline so the damaged
// partial stays its own (skipped) line instead of swallowing this one.
func (s *Store) writeLineLocked(line []byte) (int64, error) {
	offset, err := s.file.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	buf := make([]byte, 0, len(line)+2)
	if s.tornTail {
		buf = append(buf, '\n')
		offset++
	}
	buf = append(append(buf, line...), '\n')
	if _, err := s.file.Write(buf); err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	s.tornTail = false
	return offset, nil
}

// CompactTo rewrites the store into dstDir, keeping only the newest
// valid record per digest (duplicates from concurrent writers, corrupt
// lines, torn tails, and foreign-version records are all dropped) and
// each referenced per-edge table wiring once. The source store is not
// modified — CI swaps the compacted directory in place of the old one
// — and the returned store is open for use. Records are written in
// digest order, so compacting equal contents yields byte-identical
// logs. Compacting a store onto its own directory is rejected.
func (s *Store) CompactTo(dstDir string) (*Store, error) {
	if same, err := sameDirAs(s.dir, dstDir); err != nil {
		return nil, err
	} else if same {
		return nil, fmt.Errorf("resultstore: compact target %q is the store's own directory", dstDir)
	}

	s.mu.Lock()
	digests := make([]string, 0, len(s.index))
	refs := make(map[string]entryRef, len(s.index))
	for d, ref := range s.index {
		digests = append(digests, d)
		refs[d] = ref
	}
	tables := make([]string, 0, len(s.tables))
	for t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.Unlock()
	sort.Strings(digests)
	sort.Strings(tables)

	dst, err := Open(dstDir)
	if err != nil {
		return nil, err
	}
	src, err := os.Open(s.path)
	if err != nil {
		dst.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	defer src.Close()

	dst.mu.Lock()
	defer dst.mu.Unlock()
	for _, t := range tables {
		// The scan re-registered every persisted wiring, so the edges
		// are available to re-encode.
		if err := dst.appendTableLocked(t); err != nil {
			dst.file.Close()
			return nil, err
		}
	}
	for _, digest := range digests {
		ref := refs[digest]
		line := make([]byte, ref.length)
		if _, err := io.ReadFull(io.NewSectionReader(src, ref.offset, int64(ref.length)), line); err != nil {
			dst.file.Close()
			return nil, fmt.Errorf("resultstore: compact read %s: %w", digest, err)
		}
		// Re-validate before copying: the record was clean at scan
		// time, but the bytes travel once more. The scan trusted the
		// CRC; a compacted log keeps only bodies that are valid JSON.
		if body, ok := reportBody(line, digest); !ok || !json.Valid(body) {
			continue
		}
		trimmed := line
		if n := len(trimmed); n > 0 && trimmed[n-1] == '\n' {
			trimmed = trimmed[:n-1]
		}
		if _, ok := dst.index[digest]; ok {
			continue
		}
		offset, err := dst.writeLineLocked(trimmed)
		if err != nil {
			dst.file.Close()
			return nil, err
		}
		dst.index[digest] = entryRef{offset: offset, length: len(trimmed) + 1}
	}
	return dst, nil
}

// sameDirAs reports whether two directory paths name the same place on
// disk (lexically after Abs, or the same inode when both exist).
func sameDirAs(a, b string) (bool, error) {
	aa, err := filepath.Abs(a)
	if err != nil {
		return false, fmt.Errorf("resultstore: %w", err)
	}
	ab, err := filepath.Abs(b)
	if err != nil {
		return false, fmt.Errorf("resultstore: %w", err)
	}
	if aa == ab {
		return true, nil
	}
	fa, errA := os.Stat(aa)
	fb, errB := os.Stat(ab)
	if errA != nil || errB != nil {
		return false, nil // at most one exists; they cannot be the same
	}
	return os.SameFile(fa, fb), nil
}

// Len returns the number of distinct persisted configurations.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Skipped returns the number of records ignored when the log was
// opened: truncated or corrupt lines and records from other digest
// versions.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// SizeBytes returns the current size of the log file on disk.
func (s *Store) SizeBytes() int64 {
	fi, err := os.Stat(s.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Dir returns the cache directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Close releases the append handle. Load keeps working (it opens the
// log per call), but Append fails after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.file.Close()
}
