package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"

	"mcpat/internal/array"
	"mcpat/internal/memo"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// Disk codec for synthesized shared caches (L2/L3) — the
// component-tier proof that whole subsystems round-trip through the
// persistent cache bit-identically. A shared cache is the most
// expensive single subsystem a chip build synthesizes (its data array
// dominates cold time), and its parts are exactly four array.Results
// plus the rolled-up PAT, all plain exported data.
//
// The serialized form omits Cfg.Tech (a pointer into live technology
// tables): on disk the node is identified by the value fingerprint
// inside the key, and Decode reattaches the caller's own *tech.Node,
// which fingerprints equal by construction.

// cacheDiskNS versions the on-disk shape; bump when synthKey, Config,
// Cache, or array.Result change.
const cacheDiskNS = "subsys.cache.v2"

// synthKey is one shared-cache synthesis's identity on disk: the
// technology node's value fingerprint and the canonical key config
// Synthesize memoizes under.
type synthKey struct {
	TechFP uint64
	Cfg    Config
}

// encodeKey serializes the synthKey deterministically. Explicit
// field-by-field binary encoding, same discipline as array.Key's: gob
// embeds wire type IDs allocated from a process-global registry in
// first-use order, so the identical value can encode differently in two
// processes (or before/after an unrelated decode), silently missing
// every cross-process disk lookup.
func (k synthKey) encodeKey() []byte {
	buf := make([]byte, 0, 16*8)
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i := func(v int) { u(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	c := &k.Cfg // Tech nil'd, Name/CellHP cleared by Synthesize
	u(k.TechFP)
	u(uint64(c.Dev))
	u(uint64(c.CellDev))
	b(c.EDRAM)
	b(c.LongChannel)
	i(c.Bytes)
	i(c.BlockBytes)
	i(c.Assoc)
	i(c.Banks)
	i(c.Ports)
	i(c.MSHRs)
	i(c.WBDepth)
	u(math.Float64bits(c.TargetHz))
	b(c.Directory)
	i(c.Sharers)
	return buf
}

// cacheDisk is the gob shape of a synthesized Cache.
type cacheDisk struct {
	PAT       power.PAT
	Data      *array.Result
	MSHR      *array.Result
	WBBuffer  *array.Result
	Directory *array.Result
	Cfg       Config // Tech nil'd; reattached on decode
}

// persistCodec builds the per-call codec for the canonical key config
// at node. The fingerprint is taken only when the disk tier asks for
// the key, and Decode reattaches node.
func persistCodec(key Config, node *tech.Node) *memo.Codec[any] {
	return &memo.Codec[any]{
		NS: cacheDiskNS,
		Key: func() []byte {
			return synthKey{TechFP: node.Fingerprint(), Cfg: key}.encodeKey()
		},
		Encode: func(v any) ([]byte, error) {
			c := v.(*Cache)
			d := cacheDisk{
				PAT: c.PAT, Data: c.Data, MSHR: c.MSHR,
				WBBuffer: c.WBBuffer, Directory: c.Directory,
				Cfg: c.cfg,
			}
			d.Cfg.Tech = nil
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(d); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			var d cacheDisk
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d); err != nil {
				return nil, err
			}
			c := &Cache{
				PAT: d.PAT, Data: d.Data, MSHR: d.MSHR,
				WBBuffer: d.WBBuffer, Directory: d.Directory,
				cfg: d.Cfg,
			}
			c.cfg.Tech = node
			return c, nil
		},
	}
}
