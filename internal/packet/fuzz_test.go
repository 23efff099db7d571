package packet

import (
	"reflect"
	"testing"
)

// FuzzDecodeInto throws arbitrary bytes at the wire decoder: it must
// never panic, decoding into a receiver left dirty by an earlier ACK
// must equal decoding into a fresh packet, and any image it accepts
// must re-encode to the same length and decode back to an equal packet.
func FuzzDecodeInto(f *testing.F) {
	for _, p := range []*Packet{samplePacket(), sampleAck()} {
		buf, err := p.AppendEncode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	dl := samplePacket()
	dl.Flags |= FlagDeadline
	dl.Deadline = 2.5
	buf, err := dl.AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add(make([]byte, DataHeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		n, err := p.DecodeInto(data)
		dirty := sampleAck()
		dn, derr := dirty.DecodeInto(data)
		if (err == nil) != (derr == nil) || n != dn {
			t.Fatalf("fresh decode (%d, %v) and reused decode (%d, %v) disagree", n, err, dn, derr)
		}
		if err != nil {
			return
		}
		if n < DataHeaderSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if !reflect.DeepEqual(&p, dirty) {
			t.Fatalf("reused receiver decoded %+v, fresh decoded %+v", dirty, &p)
		}
		out, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatalf("decoded packet %+v does not re-encode: %v", &p, err)
		}
		if len(out) != n {
			t.Fatalf("re-encoding is %d bytes, the decoded image %d", len(out), n)
		}
		var q Packet
		if m, err := q.DecodeInto(out); err != nil || m != n {
			t.Fatalf("re-encoded image decodes to (%d, %v), want (%d, nil)", m, err, n)
		}
		if !reflect.DeepEqual(&p, &q) {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", &q, &p)
		}
	})
}
