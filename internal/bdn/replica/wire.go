package replica

// Replication protocol messages, one per transport frame, carried over the
// repo's wire framing on a dedicated replication listener (separate from
// the BDN's discovery/registration endpoint):
//
//	[magic 0xBE][version 2][type][body...]
//
// hello     — session handshake, both directions: advertised addr.
//	beat      — primary → all: name, addr, epoch, lease duration, WAL last index.
//	records   — primary → standby: a batch of WAL records starting at from.
//	snapshot  — primary → standby: full-state transfer when the requested
//	            index was compacted away.
//	applied   — standby → primary: applied through this index. It starts the
//	            stream when the session has none in the primary's epoch.
//
// A frame of any other version is refused at the header, so a mixed-version
// cluster fails there instead of misreading a renumbered type.

import (
	"errors"
	"fmt"
	"time"

	"narada/internal/wire"
)

const (
	wireMagic   byte = 0xBE
	wireVersion byte = 2

	msgHello    byte = 1
	msgBeat     byte = 2
	msgRecords  byte = 3
	msgSnapshot byte = 4
	msgApplied  byte = 5
)

// maxBatchRecords bounds one records message.
const maxBatchRecords = 256

type message struct {
	typ byte

	name string // beat: sender identity
	addr string // hello, beat: sender's advertised replication addr

	epoch     uint64        // beat, records, snapshot
	lease     time.Duration // beat
	lastIndex uint64        // beat: primary's WAL last index

	from uint64   // records: index of recs[0]
	recs [][]byte // records

	index uint64 // snapshot: covered WAL index; applied: applied through
	state []byte // snapshot body
}

func newMsgWriter(typ byte, capacity int) *wire.Writer {
	w := wire.NewWriter(capacity + 3)
	w.Byte(wireMagic)
	w.Byte(wireVersion)
	w.Byte(typ)
	return w
}

func encodeHello(addr string) []byte {
	w := newMsgWriter(msgHello, 4+len(addr))
	w.String(addr)
	return w.Detach()
}

func encodeBeat(name, addr string, epoch uint64, lease time.Duration, lastIndex uint64) []byte {
	w := newMsgWriter(msgBeat, 32+len(name)+len(addr))
	w.String(name)
	w.String(addr)
	w.Uvarint(epoch)
	w.Duration(lease)
	w.Uvarint(lastIndex)
	return w.Detach()
}

func encodeRecords(epoch, from uint64, recs [][]byte) []byte {
	size := 32
	for _, r := range recs {
		size += 8 + len(r)
	}
	w := newMsgWriter(msgRecords, size)
	w.Uvarint(epoch)
	w.Uvarint(from)
	w.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		w.BytesField(r)
	}
	return w.Detach()
}

func encodeSnapshot(epoch, index uint64, state []byte) []byte {
	w := newMsgWriter(msgSnapshot, 24+len(state))
	w.Uvarint(epoch)
	w.Uvarint(index)
	w.BytesField(state)
	return w.Detach()
}

func encodeApplied(index uint64) []byte {
	w := newMsgWriter(msgApplied, 12)
	w.Uvarint(index)
	return w.Detach()
}

func decodeMessage(b []byte) (*message, error) {
	if len(b) < 3 {
		return nil, errors.New("replica: short frame")
	}
	if b[0] != wireMagic || b[1] != wireVersion {
		return nil, fmt.Errorf("replica: bad frame header %x %x", b[0], b[1])
	}
	r := wire.NewReader(b[3:])
	m := &message{typ: b[2]}
	switch m.typ {
	case msgHello:
		m.addr = r.String()
	case msgBeat:
		m.name = r.String()
		m.addr = r.String()
		m.epoch = r.Uvarint()
		m.lease = r.Duration()
		m.lastIndex = r.Uvarint()
	case msgRecords:
		m.epoch = r.Uvarint()
		m.from = r.Uvarint()
		n := r.Uvarint()
		if n > maxBatchRecords {
			return nil, fmt.Errorf("replica: batch of %d records", n)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		m.recs = make([][]byte, 0, n)
		for i := uint64(0); i < n; i++ {
			m.recs = append(m.recs, r.BytesField())
		}
	case msgSnapshot:
		m.epoch = r.Uvarint()
		m.index = r.Uvarint()
		m.state = r.BytesField()
	case msgApplied:
		m.index = r.Uvarint()
	default:
		return nil, fmt.Errorf("replica: unknown message type %d", m.typ)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}
