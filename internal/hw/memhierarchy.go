package hw

import (
	"fmt"
	"math"
	"strings"
)

// MemProfile selects how the simulator prices the off-chip memory
// path.
type MemProfile int

const (
	// MemFlat is the paper's accounting and the zero value: off-chip
	// traffic is a flat byte count through the I/O DMA
	// (DMAL3L2BytesPerCycle + DMAL3L2SetupCycles), with no tiling,
	// prefetch-depth, or bank-contention structure. Every
	// configuration that predates the memory hierarchy keeps
	// reproducing its numbers byte-identically.
	MemFlat MemProfile = iota
	// MemDRAM models the off-chip path as a DRAM channel feeding a
	// banked SRAM through a tile-granular double-buffered prefetch
	// engine: per-burst setup + bandwidth on the channel, a bounded
	// number of tiles in flight (PrefetchDepth), and contention
	// stalls when compute and prefetch arbitrate for the same SRAM
	// banks. Streamed weights are priced per tile by internal/memsim
	// instead of as one undifferentiated transfer.
	MemDRAM

	memProfileCount // sentinel for validation
)

func (p MemProfile) String() string {
	switch p {
	case MemFlat:
		return "flat"
	case MemDRAM:
		return "dram"
	default:
		return fmt.Sprintf("mem-profile(%d)", int(p))
	}
}

// Valid reports whether p names a supported memory profile.
func (p MemProfile) Valid() bool { return p >= 0 && p < memProfileCount }

// ParseMemProfile maps a command-line spelling to a memory profile.
// Accepted names: flat | legacy, dram | lpddr5 | hierarchy.
func ParseMemProfile(s string) (MemProfile, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "flat", "legacy", "byte-count":
		return MemFlat, nil
	case "dram", "lpddr5", "hierarchy", "tiled":
		return MemDRAM, nil
	default:
		return 0, fmt.Errorf("hw: unknown memory profile %q (want flat | dram)", s)
	}
}

// MarshalText emits the canonical spelling, so JSON/CSV sinks print
// "dram" instead of a bare int.
func (p MemProfile) MarshalText() ([]byte, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("hw: cannot marshal invalid memory profile %d", int(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText parses any spelling ParseMemProfile accepts.
func (p *MemProfile) UnmarshalText(text []byte) error {
	v, err := ParseMemProfile(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// MemHierarchy describes the off-chip memory subsystem as a hierarchy
// rather than a flat byte count: a DRAM channel (per-burst setup plus
// bandwidth), a tile-granular prefetch engine with a bounded number of
// tiles in flight, and an N-bank SRAM arbiter that charges contention
// stalls when compute and prefetch hit the banks concurrently.
//
// The zero value (Profile == MemFlat) is the legacy flat model and is
// pinned byte-identical by the golden tests; MemDRAM is strictly
// additive. MemHierarchy is a comparable value type carried on
// hw.Params, so every knob — including the tiling dimensions —
// participates in the evalpool cache key and the persistent result
// store digest like any other hardware parameter.
type MemHierarchy struct {
	// Profile selects the model (MemFlat = legacy, the zero value).
	Profile MemProfile

	// DRAMBytesPerCycle is the channel's payload bandwidth in bytes
	// per cluster cycle.
	DRAMBytesPerCycle float64
	// DRAMBurstBytes is the burst granule: a transfer of n bytes
	// issues ceil(n / DRAMBurstBytes) bursts.
	DRAMBurstBytes int
	// DRAMBurstSetupCycles is the fixed cost of opening one burst
	// (row activation, command overhead).
	DRAMBurstSetupCycles int

	// PrefetchDepth is how many weight tiles the prefetch engine may
	// fetch ahead of the tile being computed (>= 1). The stream
	// buffer holds PrefetchDepth+1 tile slots: one active, the rest
	// in flight — the buffer split that bounds fetch/compute overlap.
	PrefetchDepth int
	// SRAMBanks is the number of interleaved SRAM banks between the
	// prefetch engine and the compute cluster. While a prefetch is in
	// flight during a tile's compute, the arbiter charges a
	// contention stall of min(tile work, next fetch) / SRAMBanks.
	SRAMBanks int

	// TileN / TileK are the weight-tile dimensions in elements (the
	// tile covers TileK rows of the GEMM's K axis by TileN columns of
	// its N axis). Zero means auto: the largest tile that fits one
	// stream-buffer slot. Both must be set together.
	TileN, TileK int
	// FFNTileN / FFNTileK override the tile dimensions for the FFN
	// layer family (the attention family uses TileN/TileK); zero
	// inherits. The per-family split is the exemplar's stretch goal:
	// attention and FFN GEMMs have different shapes and prefer
	// different tilings, exactly as prefill and decode preferred
	// different topologies.
	FFNTileN, FFNTileK int

	// DRAMPJPerByte is the DRAM transfer energy, billed for every
	// off-chip byte in place of Energy.L3PJPerByte when the hierarchy
	// is enabled — DRAM pJ/B is a different physical constant than
	// the chip-to-chip link's.
	DRAMPJPerByte float64
}

// Enabled reports whether the hierarchical model is selected.
func (m MemHierarchy) Enabled() bool { return m.Profile != MemFlat }

// LPDDR5 returns a DRAM-backed hierarchy modeled on the
// lm_memory_controller exemplar's edge SoC: a single LPDDR5 channel at
// 4 GB/s usable payload bandwidth (8 B per 500 MHz cluster cycle),
// 512-byte bursts costing 96 cycles of setup each, a prefetch engine
// running 2 tiles ahead of compute over an 8-bank SRAM, auto tile
// sizing, and 60 pJ/B transfer energy.
func LPDDR5() MemHierarchy {
	return MemHierarchy{
		Profile:              MemDRAM,
		DRAMBytesPerCycle:    8,
		DRAMBurstBytes:       512,
		DRAMBurstSetupCycles: 96,
		PrefetchDepth:        2,
		SRAMBanks:            8,
		DRAMPJPerByte:        60,
	}
}

// TileFor returns the resolved tile dimensions of a layer family
// (ffn selects the FFN overrides when set). Zeros mean auto sizing.
func (m MemHierarchy) TileFor(ffn bool) (n, k int) {
	if ffn && (m.FFNTileN > 0 || m.FFNTileK > 0) {
		return m.FFNTileN, m.FFNTileK
	}
	return m.TileN, m.TileK
}

// String names the hierarchy for sweep labels: "flat", or
// "dram-d<depth>b<banks>" with the tile dims appended when pinned
// ("dram-d2b8-t256x128" is depth 2, 8 banks, TileK=256, TileN=128).
func (m MemHierarchy) String() string {
	if !m.Enabled() {
		return "flat"
	}
	s := fmt.Sprintf("dram-d%db%d", m.PrefetchDepth, m.SRAMBanks)
	if m.TileN > 0 {
		s += fmt.Sprintf("-t%dx%d", m.TileK, m.TileN)
	}
	if m.FFNTileN > 0 || m.FFNTileK > 0 {
		s += fmt.Sprintf("-f%dx%d", m.FFNTileK, m.FFNTileN)
	}
	return s
}

// Validate reports the first structural problem with the hierarchy.
// The zero value (flat profile) always validates; the knobs are
// checked only when the hierarchical model is enabled.
func (m MemHierarchy) Validate() error {
	if !m.Profile.Valid() {
		return fmt.Errorf("hw: %s is not a supported memory profile", m.Profile)
	}
	if !m.Enabled() {
		return nil
	}
	switch {
	case !(m.DRAMBytesPerCycle > 0) || math.IsInf(m.DRAMBytesPerCycle, 1):
		return fmt.Errorf("hw: DRAM bandwidth must be positive and finite, got %g", m.DRAMBytesPerCycle)
	case m.DRAMBurstBytes <= 0:
		return fmt.Errorf("hw: DRAM burst bytes must be positive, got %d", m.DRAMBurstBytes)
	case m.DRAMBurstSetupCycles < 0:
		return fmt.Errorf("hw: DRAM burst setup must be non-negative, got %d", m.DRAMBurstSetupCycles)
	case m.PrefetchDepth < 1:
		return fmt.Errorf("hw: prefetch depth must be at least 1, got %d", m.PrefetchDepth)
	case m.SRAMBanks < 1:
		return fmt.Errorf("hw: SRAM bank count must be at least 1, got %d", m.SRAMBanks)
	case m.TileN < 0 || m.TileK < 0 || m.FFNTileN < 0 || m.FFNTileK < 0:
		return fmt.Errorf("hw: tile dimensions must be non-negative")
	case (m.TileN > 0) != (m.TileK > 0):
		return fmt.Errorf("hw: tile dimensions must be set together (TileN=%d TileK=%d)", m.TileN, m.TileK)
	case (m.FFNTileN > 0) != (m.FFNTileK > 0):
		return fmt.Errorf("hw: FFN tile dimensions must be set together (FFNTileN=%d FFNTileK=%d)", m.FFNTileN, m.FFNTileK)
	case !(m.DRAMPJPerByte >= 0) || math.IsInf(m.DRAMPJPerByte, 1):
		return fmt.Errorf("hw: DRAM energy must be non-negative and finite, got %g", m.DRAMPJPerByte)
	}
	return nil
}
