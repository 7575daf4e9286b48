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
//   - Content addressing is a sha256 over an exact, deterministic
//     encoding of every leaf field of the configuration, reached by a
//     reflect walk, after a hash of the key types' shape. Two Points
//     collide on one entry exactly when the evalpool cache would have
//     shared them.
//   - The digest is versioned (DigestVersion participates in the hash,
//     the digest string, the log filename, and every record), so any
//     format or semantics change invalidates old entries cleanly
//     instead of serving stale results.
//   - The log is append-only JSON lines with a per-record CRC. A
//     truncated or corrupt record — a crashed writer, a torn page — is
//     skipped (the configuration is simply re-simulated), never fatal.
//   - A report body holds only what the report's readers use: no
//     configuration echo (the digest keys it and Load restates the
//     requested configuration) and no per-chip counters.
//   - Reports whose system routes over an explicit per-edge table
//     (hw.NetTable) or a degraded board (hw.NetView) persist the
//     wiring alongside the entry, so a cold process rehydrates the
//     registry before serving those configurations. A table is written
//     as its distinct link classes plus one (from, to, class index)
//     integer triple per edge; a view as its base network, its
//     survivor list and its re-priced edges in the same triples, after
//     its base's table record when the base is a table.
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
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
//
// v4: a stored report drops its per-chip counters (core.Report keeps
// only MaxChipBusyCycles) and its System/Workload echo, and a table
// record writes its wiring as a class list plus integer triples.
//
// v5: the key is a walk over the configuration's leaves instead of
// its %#v rendering, and a degraded board is a view record (base
// network, survivors, re-priced edges) instead of a table record.
const DigestVersion = 5

var (
	// keyPrefix opens every key's hashed bytes, and digestPrefix every
	// digest string.
	keyPrefix    = fmt.Sprintf("mcudist-resultstore/v%d\x00", DigestVersion)
	digestPrefix = fmt.Sprintf("v%d-", DigestVersion)

	// keyShape is the sha256 of the key types' zero values in Go
	// syntax, which spells every type and field name in declaration
	// order. Digest hashes it ahead of the leaves, so renaming,
	// reordering or adding a field of System or Workload moves every
	// key even where the leaf encoding would not.
	keyShape = sync.OnceValue(func() [sha256.Size]byte {
		return sha256.Sum256(fmt.Appendf(nil, "%#v\x00%#v", core.System{}, core.Workload{}))
	})
)

// Digest returns the canonical content address of one evaluation
// point: a versioned sha256 over the key types' shape and every leaf
// of System and Workload, walked in field order (appendLeaves), so
// every field reaches the key by construction, unexported ones like
// the collective plan's binding array included, and distinct float
// bit patterns yield distinct digests. Two configurations digest
// equally exactly when the in-process evalpool cache would have shared
// their entry.
func Digest(sys core.System, wl core.Workload) string {
	// A key encodes to about 450 bytes, so it stays on the stack.
	var buf [1024]byte
	b := append(buf[:0], keyPrefix...)
	shape := keyShape()
	b = append(b, shape[:]...)
	b = appendLeaves(b, reflect.ValueOf(&sys).Elem())
	b = appendLeaves(b, reflect.ValueOf(&wl).Elem())
	sum := sha256.Sum256(b)
	var out [8 + 2*sha256.Size]byte
	n := copy(out[:], digestPrefix)
	hex.Encode(out[n:], sum[:])
	return string(out[:n+2*sha256.Size])
}

// appendLeaves appends the encoding of every leaf of v in field order:
// a varint per signed integer, a uvarint per unsigned one, a byte per
// bool, the IEEE bits of a float, and a string as its length and
// bytes. Arrays walk their elements; slices prefix their length. The
// key types hold nothing else (TestDigestKeyIsPlainData).
func appendLeaves(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			b = appendLeaves(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendLeaves(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("resultstore: a %v has no key encoding", v.Type()))
}

// record is one report line of the append-only log.
type record struct {
	// Kind is "report".
	Kind string `json:"kind"`
	// V is the digest/format version the record was written under;
	// records from other versions are ignored on read.
	V int `json:"v"`

	// The configuration digest, the CRC-32 (IEEE) of the raw report
	// bytes, and the report itself.
	Digest string          `json:"digest,omitempty"`
	CRC    uint32          `json:"crc,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// tableRecord is one per-edge table line of the log: the
// hw.TableNetwork content digest and the wiring that re-registers it
// in a cold process. Classes lists the distinct link classes in their
// first use along the canonical (from, to) edge order; Edges holds one
// (from, to, index into Classes) triple per edge, in that order.
type tableRecord struct {
	Kind    string         `json:"kind"`
	V       int            `json:"v"`
	Table   string         `json:"table"`
	Classes []hw.LinkClass `json:"classes"`
	Edges   []int          `json:"edges"`
}

// viewRecord is one degraded-board line of the log: the hw.ViewNetwork
// content digest and the view that re-registers it in a cold process.
// Base is the view's base network (a table base's wiring is its own
// record, written first) and Survivors its survivor list; Classes and
// Edges hold the re-priced edges as a table record holds its wiring,
// and are absent when the view re-prices none.
type viewRecord struct {
	Kind      string         `json:"kind"`
	V         int            `json:"v"`
	View      string         `json:"view"`
	Base      hw.Network     `json:"base"`
	Survivors []int          `json:"survivors"`
	Classes   []hw.LinkClass `json:"classes,omitempty"`
	Edges     []int          `json:"edges,omitempty"`
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
	views    map[string]bool // view digests already persisted
	skipped  int             // corrupt/truncated/foreign-version records ignored on open
	tornTail bool            // log ends mid-record (a writer died); heal before appending
}

// Open opens (creating if needed) the result store under dir. The
// whole log is scanned once: report records are indexed by digest
// from their envelope (the report JSON is decoded only by Load),
// table and view records re-register their wirings, and records that
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
		views:  map[string]bool{},
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
	// Lines are indexed in the reader's buffer; longer ones (a table
	// record on more than about 90 chips) gather into one reused buffer.
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
// table or view record re-registers its wiring.
func (s *Store) indexLine(line []byte, offset int64, length int, complete bool) {
	if !complete {
		s.skipped++
		return
	}
	if digest, _, ok := decodeReportLine(line); ok {
		s.index[digest] = entryRef{offset: offset, length: length}
		return
	}
	if digest, edges, ok := decodeTableLine(line); ok {
		// A wiring that does not reproduce its recorded digest is
		// damaged. TableNetwork interned it under its actual content
		// digest, which no entry references.
		if net, err := hw.TableNetwork(edges); err == nil && net.TableDigest == digest {
			s.tables[digest] = true
			return
		}
	}
	if digest, view, ok := decodeViewLine(line); ok {
		// Likewise for a view; one whose base is a table that no intact
		// record registered fails to register at all.
		if net, err := hw.ViewNetwork(view); err == nil && net.TableDigest == digest {
			s.views[digest] = true
			return
		}
	}
	s.skipped++
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

// encodeTableLine renders the table record of a per-edge wiring under
// its hw.TableNetwork digest, without the trailing newline.
func encodeTableLine(digest string, edges map[hw.Edge]hw.LinkClass) ([]byte, error) {
	keys := slices.SortedFunc(maps.Keys(edges), func(a, b hw.Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	rec := tableRecord{Kind: "table", V: DigestVersion, Table: digest}
	var tr triples
	for _, e := range keys {
		tr.add(e, edges[e])
	}
	rec.Classes, rec.Edges = tr.classes, tr.edges
	return json.Marshal(rec)
}

// triples collects edges as a record writes them: the distinct classes
// in first-use order, and one (from, to, class index) triple per edge.
type triples struct {
	classes []hw.LinkClass
	edges   []int
	index   map[hw.LinkClass]int
}

func (t *triples) add(e hw.Edge, c hw.LinkClass) {
	i, ok := t.index[c]
	if !ok {
		if t.index == nil {
			t.index = map[hw.LinkClass]int{}
		}
		i = len(t.classes)
		t.index[c] = i
		t.classes = append(t.classes, c)
	}
	t.edges = append(t.edges, e.From, e.To, i)
}

// decodeTriples walks a record's (from, to, class) triples, or reports
// ok=false unless they are whole and every class index is in range.
func decodeTriples(classes []hw.LinkClass, edges []int, add func(hw.Edge, hw.LinkClass)) bool {
	if len(edges)%3 != 0 {
		return false
	}
	for t := edges; len(t) > 0; t = t[3:] {
		if t[2] < 0 || t[2] >= len(classes) {
			return false
		}
		add(hw.Edge{From: t[0], To: t[1]}, classes[t[2]])
	}
	return true
}

// decodeTableLine reads a table line of this version and returns its
// recorded digest and wiring, or ok=false unless the edges are whole
// (from, to, class) triples and every class index is in range. It
// registers nothing and leaves the digest to the caller: the open
// scan keeps a wiring only when hw.TableNetwork registers it under the
// recorded digest.
func decodeTableLine(line []byte) (digest string, edges map[hw.Edge]hw.LinkClass, ok bool) {
	var rec tableRecord
	if json.Unmarshal(line, &rec) != nil || rec.Kind != "table" || rec.V != DigestVersion {
		return "", nil, false
	}
	edges = make(map[hw.Edge]hw.LinkClass, len(rec.Edges)/3)
	if !decodeTriples(rec.Classes, rec.Edges, func(e hw.Edge, c hw.LinkClass) { edges[e] = c }) {
		return "", nil, false
	}
	return rec.Table, edges, true
}

// encodeViewLine renders the view record of a degraded board under its
// hw.ViewNetwork digest, without the trailing newline.
func encodeViewLine(digest string, v hw.View) ([]byte, error) {
	rec := viewRecord{Kind: "view", V: DigestVersion, View: digest, Base: v.Base, Survivors: v.Survivors}
	var tr triples
	for _, o := range v.Overrides {
		tr.add(o.Edge, o.Class)
	}
	rec.Classes, rec.Edges = tr.classes, tr.edges
	return json.Marshal(rec)
}

// decodeViewLine reads a view line of this version and returns its
// recorded digest and view, or ok=false unless its re-priced edges are
// whole triples with every class index in range. Like decodeTableLine
// it registers nothing: the open scan keeps a view only when
// hw.ViewNetwork registers it under the recorded digest.
func decodeViewLine(line []byte) (digest string, v hw.View, ok bool) {
	var rec viewRecord
	if json.Unmarshal(line, &rec) != nil || rec.Kind != "view" || rec.V != DigestVersion {
		return "", hw.View{}, false
	}
	v = hw.View{Base: rec.Base, Survivors: rec.Survivors}
	if !decodeTriples(rec.Classes, rec.Edges, func(e hw.Edge, c hw.LinkClass) {
		v.Overrides = append(v.Overrides, hw.EdgeClass{Edge: e, Class: c})
	}) {
		return "", hw.View{}, false
	}
	return rec.View, v, true
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
	// The body holds no configuration: the requested one is the key.
	rep.System = sys
	rep.Workload = wl
	return rep, true
}

// Append persists one successful evaluation. Configurations already
// present are not re-written (content addressing makes duplicates
// byte-equivalent), and a system routing over an explicit per-edge
// table or a degraded view writes that wiring first so the entry is
// self-contained for cold processes. Errors are reported but callers
// typically treat a failed append as a cache-fill miss, not a failure
// of the evaluation itself.
func (s *Store) Append(sys core.System, wl core.Workload, rep *core.Report) error {
	digest := Digest(sys, wl)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[digest]; ok {
		return nil
	}
	switch net := sys.HW.Network; net.Profile {
	case hw.NetTable:
		if err := s.appendTableLocked(net.TableDigest); err != nil {
			return err
		}
	case hw.NetView:
		if err := s.appendViewLocked(net.TableDigest); err != nil {
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
	line, err := encodeTableLine(tableDigest, edges)
	if err != nil {
		return fmt.Errorf("resultstore: encode table: %w", err)
	}
	if _, err := s.writeLineLocked(line); err != nil {
		return err
	}
	s.tables[tableDigest] = true
	return nil
}

// appendViewLocked persists the view registered under the given hw
// view digest, once per store lifetime, after its base's table wiring
// when the base is a table.
func (s *Store) appendViewLocked(viewDigest string) error {
	if s.views[viewDigest] {
		return nil
	}
	v, ok := hw.ViewOf(viewDigest)
	if !ok {
		return fmt.Errorf("resultstore: view %q is not registered", viewDigest)
	}
	if v.Base.Profile == hw.NetTable {
		if err := s.appendTableLocked(v.Base.TableDigest); err != nil {
			return err
		}
	}
	line, err := encodeViewLine(viewDigest, v)
	if err != nil {
		return fmt.Errorf("resultstore: encode view: %w", err)
	}
	if _, err := s.writeLineLocked(line); err != nil {
		return err
	}
	s.views[viewDigest] = true
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
// each table and view wiring the scan registered once. The source store is not
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
	tables := slices.Sorted(maps.Keys(s.tables))
	views := slices.Sorted(maps.Keys(s.views))
	s.mu.Unlock()
	sort.Strings(digests)

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
	// The scan re-registered every persisted wiring, so each is
	// available to re-encode.
	for _, t := range tables {
		if err := dst.appendTableLocked(t); err != nil {
			dst.file.Close()
			return nil, err
		}
	}
	for _, v := range views {
		if err := dst.appendViewLocked(v); err != nil {
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
