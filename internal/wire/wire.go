// Package wire defines the byte-level encoding of protocol messages and
// the resulting wire-size cost model.
//
// The paper counts communication in *token units* (one token-send = cost
// 1), which makes protocols with different packet shapes comparable at the
// information level. Real radios bill bytes, and the three packet shapes
// in this repository encode very differently:
//
//   - singleton packets (Algorithm 1, KLO-T): one varint token ID;
//   - set packets (Algorithm 2, flooding): a packed token bitmap;
//   - coded packets (sim.KindCoded, after Haeupler–Karger; no protocol in
//     this repository sends them): a k-bit coefficient vector plus one
//     token-sized payload.
//
// Size reports the exact on-wire size of a message under this encoding;
// the engine's byte accounting (sim.Metrics.BytesSent) uses it, giving the
// harness a second, harsher cost model under which the paper's qualitative
// claims can be re-examined.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/sim"
	"repro/internal/token"
)

// Header is the fixed per-packet overhead in bytes: sender ID (2),
// addressee (2), kind (1).
const Header = 5

// MaxNodeID is the largest node ID the 2-byte header fields can carry.
// To is stored as To+1 (so NoAddr = -1 maps to 0), which caps both fields
// one below the uint16 maximum; 65535 stays free as an invalid sentinel so
// silent wraparound can be rejected on both encode and decode.
const MaxNodeID = 65534

// TokenBytes is the assumed payload size of one token in bytes. Token IDs
// are metadata; the token body (the actual information being disseminated)
// is modelled as a fixed-size blob, as in the paper's "total size of
// packets" accounting.
const TokenBytes = 32

// Encode serialises a message; Decode reverses it. The format:
//
//	header | units | payload
//
// where units is the uvarint Message.Units (0 when unset, so every decoded
// message is charged the same Cost as the one sent), and payload is:
//
//	kind broadcast/relay/upload: EncodeSet(token set), plus
//	    TokenBytes per contained token (the bodies);
//	kind coded: EncodeSet(coefficient vector) + one TokenBytes body.
//
// Encode fails on node IDs outside [0, MaxNodeID] (From; To additionally
// admits sim.NoAddr) and on negative Units — the alternative is a silent
// uint16 wraparound that corrupts the accounting.
func Encode(buf []byte, m *sim.Message) ([]byte, error) {
	if m.From < 0 || m.From > MaxNodeID {
		return nil, fmt.Errorf("wire: sender ID %d outside [0, %d]", m.From, MaxNodeID)
	}
	if m.To != sim.NoAddr && (m.To < 0 || m.To > MaxNodeID) {
		return nil, fmt.Errorf("wire: addressee %d neither NoAddr nor in [0, %d]", m.To, MaxNodeID)
	}
	if m.Units < 0 {
		return nil, fmt.Errorf("wire: negative Units %d", m.Units)
	}
	var hdr [Header]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(m.From))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(m.To+1)) // NoAddr=-1 -> 0
	hdr[4] = byte(m.Kind)
	buf = append(buf, hdr[:]...)
	buf = binary.AppendUvarint(buf, uint64(m.Units))
	buf = token.EncodeSet(buf, payloadSet(m))
	buf = append(buf, make([]byte, bodyCount(m)*TokenBytes)...)
	return buf, nil
}

// bodyCount is how many token bodies the message carries.
func bodyCount(m *sim.Message) int {
	if m.Kind == sim.KindCoded {
		return 1 // one coded combination of bodies
	}
	if m.Tokens == nil {
		return 0
	}
	return m.Tokens.Len()
}

// Size returns the exact encoded size of a message in bytes. It is pure
// arithmetic over the packed payload words (token.EncodedSetSize), so the
// per-message byte accounting never materialises an encoding.
func Size(m *sim.Message) int {
	units := m.Units
	if units < 0 {
		units = 0
	}
	return Header + token.UvarintLen(uint64(units)) +
		token.EncodedSetSize(m.Tokens) + bodyCount(m)*TokenBytes
}

// emptySet stands in for a nil Tokens field during encoding.
var emptySet = &bitset.Set{}

func payloadSet(m *sim.Message) *bitset.Set {
	if m.Tokens == nil {
		return emptySet
	}
	return m.Tokens
}

// Decode reverses Encode, returning the message and remaining bytes. Every
// field of the sent message — including Units, and hence Cost and Size —
// survives the round trip; buffers whose header carries the invalid 65535
// sender sentinel are rejected, so Decode only ever produces messages that
// Encode accepts.
func Decode(buf []byte) (*sim.Message, []byte, error) {
	if len(buf) < Header {
		return nil, nil, fmt.Errorf("wire: truncated header")
	}
	from := int(binary.LittleEndian.Uint16(buf[0:]))
	if from > MaxNodeID {
		return nil, nil, fmt.Errorf("wire: invalid sender ID %d", from)
	}
	m := &sim.Message{
		From: from,
		To:   int(binary.LittleEndian.Uint16(buf[2:])) - 1,
		Kind: sim.MsgKind(buf[4]),
	}
	units, sz := binary.Uvarint(buf[Header:])
	if sz <= 0 {
		return nil, nil, fmt.Errorf("wire: truncated units")
	}
	if units > uint64(math.MaxInt64) {
		return nil, nil, fmt.Errorf("wire: Units %d overflows int", units)
	}
	m.Units = int(units)
	set, rest, err := token.DecodeSet(buf[Header+sz:])
	if err != nil {
		return nil, nil, fmt.Errorf("wire: payload: %w", err)
	}
	m.Tokens = set
	bodies := bodyCount(m) * TokenBytes
	if len(rest) < bodies {
		return nil, nil, fmt.Errorf("wire: truncated bodies (want %d bytes, have %d)", bodies, len(rest))
	}
	return m, rest[bodies:], nil
}
