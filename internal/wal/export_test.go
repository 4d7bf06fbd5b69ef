package wal

import "hash/crc32"

// Exported for the external test package: FuzzCheckpointLoad needs
// internal/check, which imports this package, so it cannot live inside it.

// Manifest is the checkpoint directory's JSON index.
type Manifest = manifest

// ManifestName is the index file's name inside a checkpoint directory.
const ManifestName = manifestName

// LoadCheckpoint reads and validates one checkpoint directory.
var LoadCheckpoint = loadCheckpoint

// Checksum is the CRC the manifest records for each shard file.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
