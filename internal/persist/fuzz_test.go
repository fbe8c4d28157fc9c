package persist_test

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"mcpat/internal/array"
	"mcpat/internal/cache"
	"mcpat/internal/component"
	"mcpat/internal/persist"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// FuzzDecodeEntry feeds arbitrary bytes and keys to the entry decoder.
// It may not panic, and whenever it returns a payload, encoding that
// payload under the key must reproduce the input exactly, so no entry
// ever yields a value stored under another key. The seeds are the
// array and cache entries one shared-cache synthesis publishes, each
// also truncated and with a flipped byte.
func FuzzDecodeEntry(f *testing.F) {
	for _, entry := range synthesizedEntries(f) {
		// magic (6 bytes), key length (4), payload length (8), key, ...
		key := entry[18 : 18+binary.LittleEndian.Uint32(entry[6:10])]
		flipped := bytes.Clone(entry)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(entry, key)
		f.Add(entry[:len(entry)-5], key)
		f.Add(flipped, key)
	}
	f.Fuzz(func(t *testing.T, data, key []byte) {
		payload, err := persist.DecodeEntry(data, key)
		if err != nil {
			return
		}
		if enc := persist.EncodeEntry(key, payload); !bytes.Equal(enc, data) {
			t.Fatalf("decoded a %d-byte payload for key %q from an entry that is not its encoding", len(payload), key)
		}
	})
}

// synthesizedEntries synthesizes one small shared cache over a fresh
// disk tier, from cold memory tiers, and returns every entry file it
// published: the cache's own and its arrays'.
func synthesizedEntries(f *testing.F) [][]byte {
	s, err := persist.Open(persist.Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	prev := persist.SetDefault(s)
	reset := func() {
		component.ResetCache()
		array.ResetCache()
	}
	reset()
	defer func() {
		persist.SetDefault(prev)
		s.Close()
		reset()
	}()
	cfg := cache.Config{Name: "l2", Tech: techtest.Node(65), Dev: tech.HP,
		Bytes: 64 << 10, BlockBytes: 64, Assoc: 4, Banks: 1, TargetHz: 2e9}
	if _, err := cache.Synthesize(cfg); err != nil {
		f.Fatal(err)
	}
	var entries [][]byte
	err = filepath.WalkDir(s.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".mcpe" {
			return err
		}
		data, err := os.ReadFile(path)
		entries = append(entries, data)
		return err
	})
	if err != nil || len(entries) < 2 {
		f.Fatalf("synthesis published %d entries (%v), want the cache's and its arrays'", len(entries), err)
	}
	return entries
}
