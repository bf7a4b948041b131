// Package flit defines the data units of the MediaWorm simulation: traffic
// classes, messages (the unit a wormhole network routes), and flits (the unit
// of flow control and bandwidth scheduling).
//
// The workload hierarchy follows §4.2 of the paper: a video *stream* emits
// *frames* every 33 ms; each frame is segmented into fixed-size *messages*;
// each message is a header flit followed by middle flits and a tail flit.
// The header carries the routing information and the message's bandwidth
// request (Vtick) for the Virtual Clock scheduler.
package flit

import (
	"fmt"

	"mediaworm/internal/sim"
)

// Class is an ATM-style traffic class (§1 of the paper).
type Class uint8

const (
	// CBR is constant-bit-rate real-time traffic (uncompressed video/audio).
	CBR Class = iota
	// VBR is variable-bit-rate real-time traffic (compressed, MPEG-2-like).
	VBR
	// BestEffort (ABR) is everything without real-time requirements.
	BestEffort
)

// RealTime reports whether the class carries a QoS requirement.
func (c Class) RealTime() bool { return c == CBR || c == VBR }

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case CBR:
		return "CBR"
	case VBR:
		return "VBR"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Message is the unit of routing. In wormhole switching each message acts as
// an independent connection: its header carries Vtick, and the router discards
// that state when the tail leaves (§3.3).
type Message struct {
	// ID is unique per simulation run (assigned by the traffic layer).
	ID uint64
	// StreamID identifies the video stream (or best-effort source) that
	// produced this message. Negative for traffic without a stream.
	StreamID int
	// Class of the payload.
	Class Class
	// FrameSeq is the frame number within the stream, MsgSeq the message
	// number within the frame, and MsgsInFrame the frame's message count.
	// A frame is delivered when all MsgsInFrame tails have reached the sink.
	FrameSeq    int
	MsgSeq      int
	MsgsInFrame int
	// Flits is the total flit count including header and tail. Always >= 1;
	// a 1-flit message's single flit is both header and tail.
	Flits int
	// Vtick is the requested inter-flit service interval in nanoseconds
	// (1 / bandwidth in flits per ns). sim.Forever marks best-effort
	// messages, which have maximum slack (§3.3).
	Vtick sim.Time
	// Src and Dst are endpoint (node) identifiers.
	Src, Dst int
	// DstVC is the virtual channel at the destination's final link, drawn at
	// stream setup from the class's VC partition (§4.2.1).
	DstVC int
	// Injected is the instant the message entered its source NI queue.
	Injected sim.Time
	// Attempt is the end-to-end transmission attempt: 0 for the original
	// injection, incremented by the NI retransmission layer on each resend.
	Attempt int
	// Dead marks a message killed by the fault/resilience layer (link
	// failure, flit corruption, retransmission timeout, or deadlock
	// recovery). Routers and NIs reap dead messages' flits from their
	// buffers instead of forwarding them, so the worm unravels and its
	// buffer space and virtual channels are reclaimed. Kills go through
	// core.DeathFlag.Kill so the fabric's death flag knows of them.
	Dead bool
}

// IsLastOfFrame reports whether this is the frame's final message.
func (m *Message) IsLastOfFrame() bool { return m.MsgSeq == m.MsgsInFrame-1 }

// Flit is one flow-control unit of a message. Flits are small value types so
// buffers hold them without per-flit allocation.
type Flit struct {
	// Msg is the owning message.
	Msg *Message
	// Seq is the flit index within the message: 0 is the header,
	// Msg.Flits-1 the tail.
	Seq int
	// TS is the Virtual Clock timestamp assigned on arrival at the current
	// contention point (sim.Forever for best-effort flits).
	TS sim.Time
	// Enq is the arrival instant at the current queue; it is the FIFO
	// scheduling key and the stage-1 eligibility reference.
	Enq sim.Time
}

// IsHeader reports whether f is its message's header flit.
func (f Flit) IsHeader() bool { return f.Seq == 0 }

// IsTail reports whether f is its message's tail flit.
func (f Flit) IsTail() bool { return f.Seq == f.Msg.Flits-1 }

// FlitsForBytes returns the number of flitBits-sized flits needed to carry
// payloadBytes, always at least 1 (the header).
func FlitsForBytes(payloadBytes, flitBits int) int {
	if flitBits <= 0 {
		panic("flit: non-positive flit size")
	}
	bits := payloadBytes * 8
	n := (bits + flitBits - 1) / flitBits
	if n < 1 {
		n = 1
	}
	return n
}
