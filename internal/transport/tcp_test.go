package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// listeners reserves n loopback listeners on ephemeral ports and returns
// them with their addresses, so a test cluster's peer list is conflict-free
// by construction.
func listeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// tcpPair builds a connected 2-rank transport over loopback and registers
// teardown.
func tcpPair(t *testing.T, ctx context.Context) (*TCP, *TCP) {
	t.Helper()
	lns, addrs := listeners(t, 2)
	t0, err := NewTCPWith(ctx, 0, addrs, TCPConfig{Listener: lns[0]})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCPWith(ctx, 1, addrs, TCPConfig{Listener: lns[1]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1
}

func TestFrameRoundTrip(t *testing.T) {
	var scratch [16 * 512]byte
	for _, n := range []int{0, 1, 511, 512, 513, 4097} {
		msg := make([]complex128, n)
		for i := range msg {
			msg[i] = complex(float64(i)+0.25, -float64(i)*3)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg, scratch[:]); err != nil {
			t.Fatal(err)
		}
		if want := 4 + 16*n; buf.Len() != want {
			t.Fatalf("n=%d: frame is %d bytes, want %d", n, buf.Len(), want)
		}
		got, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(got))
		}
		for i := range got {
			if got[i] != msg[i] {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, got[i], msg[i])
			}
		}
	}
}

func TestTCPDeliversOrderedBothDirections(t *testing.T) {
	t0, t1 := tcpPair(t, context.Background())
	const msgs = 200
	go func() {
		for i := 0; i < msgs; i++ {
			t0.SendCh(0, 1) <- []complex128{complex(float64(i), 0)}
			t1.SendCh(1, 0) <- []complex128{complex(0, float64(i))}
		}
	}()
	for i := 0; i < msgs; i++ {
		if got := <-t1.RecvCh(1, 0); real(got[0]) != float64(i) {
			t.Fatalf("rank 1 message %d out of order: %v", i, got)
		}
		if got := <-t0.RecvCh(0, 1); imag(got[0]) != float64(i) {
			t.Fatalf("rank 0 message %d out of order: %v", i, got)
		}
	}
}

func TestTCPSelfLinkStaysLocal(t *testing.T) {
	t0, _ := tcpPair(t, context.Background())
	t0.SendCh(0, 0) <- []complex128{42}
	if got := <-t0.RecvCh(0, 0); got[0] != 42 {
		t.Fatalf("self link delivered %v", got)
	}
}

func TestTCPPeerCloseMarksDead(t *testing.T) {
	t0, t1 := tcpPair(t, context.Background())
	// Establish the link, then tear down rank 1: rank 0 must see the death.
	t0.SendCh(0, 1) <- []complex128{1}
	<-t1.RecvCh(1, 0)
	t1.Close()
	select {
	case <-t0.Dead():
	case <-time.After(5 * time.Second):
		t.Fatal("peer close not detected")
	}
	if r := t0.DeadRank(); r != 1 {
		t.Fatalf("dead rank %d, want 1", r)
	}
	if t0.DeadErr() == nil {
		t.Fatal("dead link must carry a cause")
	}
}

func TestTCPHandshakeRejectsWrongTarget(t *testing.T) {
	lns, addrs := listeners(t, 2)
	tr, err := NewTCPWith(context.Background(), 1, addrs, TCPConfig{Listener: lns[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	lns[0].Close()
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim to be rank 0 dialing rank 0 (wrong target): the acceptor must
	// drop the connection without acking.
	if err := shakeHands(conn, 0, 0, 2); err == nil {
		t.Fatal("mis-addressed handshake should not be acked")
	}
}

func TestTCPDialRetriesUntilPeerUp(t *testing.T) {
	lns, addrs := listeners(t, 2)
	ctx := context.Background()
	t0, err := NewTCPWith(ctx, 0, addrs, TCPConfig{Listener: lns[0], RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	// Rank 1 is not up yet: close its reserved listener so dials are refused,
	// then bring the real transport up on the same address shortly after.
	addr := addrs[1]
	lns[1].Close()
	t0.SendCh(0, 1) <- []complex128{7}
	time.Sleep(100 * time.Millisecond)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("ephemeral port %s not reusable: %v", addr, err)
	}
	t1, err := NewTCPWith(ctx, 1, addrs, TCPConfig{Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	select {
	case got := <-t1.RecvCh(1, 0):
		if got[0] != 7 {
			t.Fatalf("delivered %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered after peer came up")
	}
}

// A dead peer must surface the dial timeout close to DialTimeout, not
// DialTimeout plus however much of a retry pause was already under way: the
// deadline is checked before sleeping and the final pause is capped at the
// time remaining. With DialTimeout 200ms and RetryInterval 150ms the old
// after-the-sleep check gave up only at ~300ms.
func TestTCPDialTimeoutHonored(t *testing.T) {
	lns, addrs := listeners(t, 2)
	lns[1].Close() // rank 1 stays down: every dial is refused immediately
	tr, err := NewTCPWith(context.Background(), 0, addrs, TCPConfig{
		Listener:      lns[0],
		DialTimeout:   200 * time.Millisecond,
		RetryInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	tr.SendCh(0, 1) <- []complex128{1}
	select {
	case <-tr.Dead():
	case <-time.After(5 * time.Second):
		t.Fatal("dial timeout never surfaced")
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("gave up after %v, before the deadline", elapsed)
	}
	if elapsed > 280*time.Millisecond {
		t.Fatalf("gave up after %v, overshooting the 200ms deadline by a retry interval", elapsed)
	}
	if err := tr.DeadErr(); err == nil || !strings.Contains(err.Error(), "no answer after") {
		t.Fatalf("dead link error = %v, want the dial-timeout cause", err)
	}
}

func TestTCPRejectsBadConfigs(t *testing.T) {
	if _, err := NewTCPWith(context.Background(), 2, []string{"a", "b"}, TCPConfig{}); err == nil {
		t.Fatal("out-of-range rank must be rejected")
	}
	if _, err := NewTCPWith(context.Background(), 0, []string{"a"}, TCPConfig{}); err == nil {
		t.Fatal("single-peer cluster must be rejected")
	}
}

func TestInprocLinksAreSharedChannels(t *testing.T) {
	tr := NewInproc(3)
	if tr.Size() != 3 || !tr.Local(2) {
		t.Fatal("inproc must host every rank")
	}
	tr.SendCh(0, 1) <- []complex128{9}
	if got := <-tr.RecvCh(1, 0); got[0] != 9 {
		t.Fatalf("delivered %v", got)
	}
	if tr.Dead() != nil || tr.DeadRank() != -1 || tr.DeadErr() != nil {
		t.Fatal("inproc has no failure mode")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPManyRanksAllToAll exercises the full mesh: 4 single-rank
// transports over loopback, every ordered pair exchanging one message.
func TestTCPManyRanksAllToAll(t *testing.T) {
	const n = 4
	lns, addrs := listeners(t, n)
	trs := make([]*TCP, n)
	for i := 0; i < n; i++ {
		tr, err := NewTCPWith(context.Background(), i, addrs, TCPConfig{Listener: lns[i]})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			for j := 0; j < n; j++ {
				trs[i].SendCh(i, j) <- []complex128{complex(float64(10*i+j), 0)}
			}
			for j := 0; j < n; j++ {
				got := <-trs[i].RecvCh(i, j)
				if want := complex(float64(10*j+i), 0); got[0] != want {
					errc <- fmt.Errorf("rank %d from %d: %v, want %v", i, j, got[0], want)
					return
				}
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadFrameLyingHeaderAllocatesLittle: a header that claims the largest
// frame the limit allows, followed by EOF, is an error, and the reader
// allocates for the payload that arrived (none), not the 4 GiB claimed.
func TestReadFrameLyingHeaderAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrameElems-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	msg, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&m1)
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %d elements, error %v; want io.ErrUnexpectedEOF", len(msg), err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a frame header with no payload allocated %d B, want < 1 MiB", got)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: nothing may
// panic, and a frame it accepts re-encodes to exactly the bytes it
// consumed.
func FuzzReadFrame(f *testing.F) {
	var scratch [16 * frameChunk]byte
	var frame bytes.Buffer
	msg := make([]complex128, frameChunk+3)
	for i := range msg {
		msg[i] = complex(float64(i)-0.5, float64(i)*7)
	}
	if err := writeFrame(&frame, msg, scratch[:]); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())
	f.Add(frame.Bytes()[:frame.Len()-9])
	limit := binary.LittleEndian.AppendUint32(nil, maxFrameElems)
	f.Add(limit)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := bytes.NewReader(body)
		got, err := readFrame(r)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeFrame(&again, got, scratch[:]); err != nil {
			t.Fatal(err)
		}
		if consumed := body[:len(body)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted frame of %d elements re-encodes to %d bytes, %d consumed", len(got), again.Len(), len(consumed))
		}
	})
}

// FuzzReadHandshake feeds arbitrary bytes to the acceptor's half of the
// handshake, for a local rank and cluster size drawn from the input:
// nothing may panic, and an accepted handshake is exactly the 20 bytes a
// dialer of the returned rank sends.
func FuzzReadHandshake(f *testing.F) {
	good := func(from, to, size uint32) []byte {
		hs := []byte(handshakeMagic)
		for _, v := range []uint32{handshakeVersion, from, to, size} {
			hs = binary.LittleEndian.AppendUint32(hs, v)
		}
		return hs
	}
	f.Add(good(0, 1, 2), uint8(1), uint8(2))
	f.Add(good(3, 1, 2), uint8(1), uint8(2))
	f.Add(good(0, 1, 2)[:11], uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, local, size uint8) {
		from, err := readHandshake(bytes.NewReader(body), int(local), int(size))
		if err != nil {
			return
		}
		if from < 0 || from >= int(size) {
			t.Fatalf("accepted rank %d of a %d-rank cluster", from, size)
		}
		if want := good(uint32(from), uint32(local), uint32(size)); !bytes.Equal(body[:len(want)], want) {
			t.Fatalf("accepted handshake % x, a dialer sends % x", body[:len(want)], want)
		}
	})
}
