package congest

import "fmt"

// Tag identifies a message's wire format. The library's algorithm messages
// occupy the low tag values and fit the MsgTagBits (= 4 bit) header the
// bandwidth accounting charges; the remaining space up to MaxTags is
// headroom for procs outside the library (tests), charged at the same rate
// exactly as the legacy interface path charged every message MsgTagBits.
type Tag uint8

// Library message tags. Tags are globally unique so that composed
// algorithms (e.g. Remark 4.5 = orientation + dominating set) never
// collide, and so the engine can aggregate per-type statistics with a
// plain array lookup instead of a reflect.Type map.
const (
	tagInvalid Tag = iota

	// internal/mds
	TagWeight  // weight announcement (w, deg)
	TagPacking // packing value as (τ, exponent[, normalizer]) — x = τ·(1+ε)^exp/(D+1)
	TagJoin    // sender joined the dominating set
	TagRequest // ask the τ-neighbor to join
	TagDom     // sender is dominated
	TagDegree  // degree announcement

	// internal/orient
	TagPeel // sender peeled this iteration

	// internal/baseline
	TagFracX       // KW05 fractional value exponent index
	TagFracCovered // KW05 fractional coverage flag
	TagSpan        // LRG span/coverage status
	TagCovered     // LW newly-covered announcement
	TagMaxSpan     // LRG distance-1 max span relay
	TagCandidate   // LRG candidacy announcement
	TagSupport     // LRG support count

	numLibraryTags
)

// MaxTags bounds the tag space (and sizes the per-shard statistics
// arrays). Library tags must additionally fit the 4-bit wire header.
const MaxTags = 32

// The library's wire format must fit the MsgTagBits header it is charged
// (compile-time check: this constant overflows if tags exceed 1<<MsgTagBits).
const _ = uint((1 << MsgTagBits) - numLibraryTags)

var tagNames = [numLibraryTags]string{
	tagInvalid:     "invalid",
	TagWeight:      "weight",
	TagPacking:     "packing",
	TagJoin:        "join",
	TagRequest:     "request",
	TagDom:         "dom",
	TagDegree:      "degree",
	TagPeel:        "peel",
	TagFracX:       "frac-x",
	TagFracCovered: "frac-covered",
	TagSpan:        "span",
	TagCovered:     "covered",
	TagMaxSpan:     "max-span",
	TagCandidate:   "candidate",
	TagSupport:     "support",
}

// String returns the stable name used as the MessageStats key.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag-%d", uint8(t))
}

// Packet is the wire-word message representation: a tag plus a payload
// packed into at most two machine words, with the CONGEST bit cost fixed
// at pack time. Packets are plain values — sending one allocates nothing,
// boxes nothing, and routing reads Bits as a field instead of making a
// dynamic Bits() call per delivered copy.
//
// Bits is the encoded size in bits charged against the per-edge bandwidth
// budget; it must equal MsgTagBits plus the BitsInt/BitsUint cost of the
// payload fields (the per-message-type pack helpers compute it, and the
// wire round-trip tests pin it against the legacy accounting). A, B carry
// the payload; their layout is private to the pack/decode helpers of the
// package that owns the tag.
type Packet struct {
	A, B uint64
	Bits uint32
	Tag  Tag
}

// TagOnly returns the packet for a payload-free message (join, dom, peel,
// …): just the MsgTagBits type header.
func TagOnly(tag Tag) Packet {
	return Packet{Tag: tag, Bits: MsgTagBits}
}
