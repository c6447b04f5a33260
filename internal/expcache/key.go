package expcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
)

// Key is the content address of one cached experiment point: a SHA-256 over
// the canonical serialization of everything that determines the point's
// result — the full simulation config, the point identity, the derived seed,
// and a model-version salt. Two configs agree on a Key if and only if they
// hashed the same (name, value) sequence, so results can never be served
// across semantically different simulations.
type Key [sha256.Size]byte

// Hex returns the key as a lowercase hex string (the cache filename stem).
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseKey inverts Hex: it accepts exactly a 64-character hex string. It is
// the validation gate for externally supplied keys (the daemon's cache
// entry routes), so a malformed or truncated key can never reach the
// filesystem layer.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != hex.EncodedLen(len(k)) {
		return Key{}, fmt.Errorf("expcache: key %q: want %d hex chars, got %d", s, hex.EncodedLen(len(k)), len(s))
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, fmt.Errorf("expcache: key %q: %w", s, err)
	}
	return k, nil
}

// KeyBuilder accumulates labeled fields into a Key. Every field is written
// as `name=value\n` with the value in a canonical, type-tagged form:
// strings are quoted and raw bytes length-prefixed (so embedded separators
// cannot collide), and integers print in base 10. Field order matters —
// callers must write fields in a fixed order.
type KeyBuilder struct {
	h hash.Hash
}

// NewKey starts a builder whose first field is the model-version salt. Bump
// the salt whenever simulation semantics change: every previously written
// entry becomes unreachable (a miss), which is exactly the invalidation
// policy a content-addressed cache needs.
func NewKey(salt string) *KeyBuilder {
	b := &KeyBuilder{h: sha256.New()}
	return b.Str("salt", salt)
}

func (b *KeyBuilder) field(name, canon string) *KeyBuilder {
	b.h.Write([]byte(name))
	b.h.Write([]byte{'='})
	b.h.Write([]byte(canon))
	b.h.Write([]byte{'\n'})
	return b
}

// Str adds a string field (quoted, so arbitrary content is unambiguous).
func (b *KeyBuilder) Str(name, v string) *KeyBuilder {
	return b.field(name, strconv.Quote(v))
}

// Int adds an integer field.
func (b *KeyBuilder) Int(name string, v int64) *KeyBuilder {
	return b.field(name, strconv.FormatInt(v, 10))
}

// Bytes adds a raw byte field, length-prefixed so arbitrary content —
// a canonical JSON document, say — is unambiguous.
func (b *KeyBuilder) Bytes(name string, v []byte) *KeyBuilder {
	b.h.Write([]byte(name))
	b.h.Write([]byte("=" + strconv.Itoa(len(v)) + ":"))
	b.h.Write(v)
	b.h.Write([]byte{'\n'})
	return b
}

// Sum finalizes the key.
func (b *KeyBuilder) Sum() Key {
	var k Key
	copy(k[:], b.h.Sum(nil))
	return k
}
