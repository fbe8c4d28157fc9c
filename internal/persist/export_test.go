package persist

// The entry codec, for the fuzz target in package persist_test: it
// imports the synthesis layers that write real entries, which import
// this package.
var (
	DecodeEntry = decodeEntry
	EncodeEntry = encodeEntry
)
