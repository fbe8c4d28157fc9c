package array

import (
	"fmt"
	"math"

	"mcpat/internal/power"
)

// physAddrBits is the physical address width assumed when deriving tag
// widths (McPAT's default machine model).
const physAddrBits = 42

// tagStatusBits covers valid/dirty/coherence state per tag entry.
const tagStatusBits = 3

// newCache synthesizes a set-associative cache as a data array plus a tag
// array and merges their power/area/timing.
func newCache(cfg Config, totalBits, wordBits int) (*Result, error) {
	if cfg.Bytes == 0 {
		return nil, fmt.Errorf("array %q: associative caches must be byte-sized", cfg.Name)
	}
	blockBytes := wordBits / 8
	if blockBytes == 0 {
		blockBytes = 64
	}
	blocks := cfg.Bytes / blockBytes
	if blocks < cfg.Assoc {
		return nil, fmt.Errorf("array %q: %d blocks < associativity %d", cfg.Name, blocks, cfg.Assoc)
	}
	sets := blocks / cfg.Assoc

	// Parallel (fast, power-hungry) vs sequential (tag-then-data) way
	// access: small L1-class caches read all ways in parallel.
	parallel := cfg.Bytes <= 64*1024
	if cfg.Sequential != nil {
		parallel = !*cfg.Sequential
	}

	// The enumeration-invariant environment depends only on the node,
	// device classes, and port count, all shared by the data and tag
	// arrays - build it once for both optimizer runs.
	env := newSRAMEnv(&cfg)

	// --- Data array ---------------------------------------------------
	dataCfg := cfg
	dataCfg.Assoc = 0
	dataCfg.Name = cfg.Name + ".data"
	dataWord := wordBits
	if parallel {
		dataWord = wordBits * cfg.Assoc
	}
	dataCfg.BlockBits = dataWord
	data, err := optimize(env, dataCfg, totalBits, dataWord)
	if err != nil {
		return nil, err
	}
	if cfg.CellKind == EDRAM {
		applyEDRAM(&dataCfg, data, totalBits)
	}

	// --- Tag array ------------------------------------------------------
	tagBits := cfg.TagBits
	if tagBits == 0 {
		offsetBits := ceilLog2(blockBytes)
		indexBits := ceilLog2(sets)
		tagBits = physAddrBits - offsetBits - indexBits + tagStatusBits
		if tagBits < 8 {
			tagBits = 8
		}
	}
	tagCfg := cfg
	tagCfg.Assoc = 0
	tagCfg.Bytes = 0
	tagCfg.Name = cfg.Name + ".tag"
	tagCfg.Entries = sets
	tagCfg.EntryBits = tagBits * cfg.Assoc // all ways checked together
	tagCfg.BlockBits = tagBits * cfg.Assoc
	tag, err := optimize(env, tagCfg, sets*tagBits*cfg.Assoc, tagBits*cfg.Assoc)
	if err != nil {
		return nil, err
	}

	// Way comparators: Assoc comparators of tagBits each per access.
	per := newPeriphCtx(&cfg)
	wmin := cfg.Tech.MinWidthN()
	cCmpBit := 4 * wmin * per.Dev.CgPerW // XOR + match chain per bit
	eCompare := float64(cfg.Assoc) * float64(tagBits) * per.SwitchE(cCmpBit) * 0.5
	tCompare := 3 * per.FO4()

	res := &Result{Tag: tag}
	res.Energy = power.Energy{
		Read:  data.Energy.Read + tag.Energy.Read + eCompare,
		Write: data.Energy.Write + tag.Energy.Write + eCompare,
	}
	res.Static = data.Static.Add(tag.Static)
	res.Area = data.Area + tag.Area
	if parallel {
		// Tag and data proceed in parallel; way select at the end.
		res.AccessTime = math.Max(data.AccessTime, tag.AccessTime+tCompare) + per.FO4()
	} else {
		res.AccessTime = tag.AccessTime + tCompare + data.AccessTime
	}
	res.CycleTime = math.Max(data.CycleTime, tag.CycleTime)
	res.Delay = res.AccessTime
	res.Cycle = res.CycleTime
	res.Height = math.Sqrt(res.Area)
	res.Width = res.Height
	res.Rows, res.Cols, res.Subarrays, res.ColMux, res.Banks =
		data.Rows, data.Cols, data.Subarrays, data.ColMux, data.Banks
	return res, nil
}
