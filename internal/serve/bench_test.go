package serve

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"
)

// BenchmarkServeHit pipelines one cached query through a real Server
// over loopback TCP: socket in, parse, key, cache hit, in-order write,
// socket out. The client side (one prebuilt chunk written over and
// over, answers read with ReadSlice) allocates nothing, so allocs/op is
// the server's cost of a hit.
func BenchmarkServeHit(b *testing.B) {
	srv := New(&fakeQuerier{}, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	const line = "17 4 9 33 | 8 21 5 60\n"
	if _, err := conn.Write([]byte(line)); err != nil { // the miss that fills the cache
		b.Fatal(err)
	}
	if _, err := r.ReadSlice('\n'); err != nil {
		b.Fatal(err)
	}

	const chunk = 32
	lines := bytes.Repeat([]byte(line), chunk)
	b.ReportAllocs()
	b.ResetTimer()
	sent := make(chan error, 1)
	go func() {
		for left := b.N; left > 0; left -= chunk {
			if _, err := conn.Write(lines[:min(left, chunk)*len(line)]); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadSlice('\n'); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
}
