package server

// Exports for the external server_test package, whose tests build
// routed servers over shard.Router (shard imports server).

var (
	CheckSearchEncoding = checkSearchEncoding
	EncodeDocs          = encodeDocs
)
