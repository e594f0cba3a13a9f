package server_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/server"
)

// BenchmarkRemotePipelinedGet times a GET through the whole serving stack:
// client flush, wire, server reader, GET coalescing, index lookup and reply
// writer, over loopback to an in-process server. 2 connections × 64
// callers each keep both pipelines full, the shape of the repo benchmark's
// remote_get; one op is one Get against a 100,000-key bulk-loaded index.
func BenchmarkRemotePipelinedGet(b *testing.B) {
	const (
		nkeys   = 100_000
		conns   = 2
		callers = 64
	)
	ix, err := chameleon.OpenDir(b.TempDir(), chameleon.DirOptions{})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, nkeys)
	vals := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i)*7919 + 1
		vals[i] = valOf(keys[i])
	}
	if err := ix.BulkLoad(keys, vals); err != nil {
		b.Fatal(err)
	}
	s := server.New(ix, server.Options{OwnsIndex: true})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go s.Serve()    //nolint:errcheck
	defer s.Close() //nolint:errcheck
	c, err := client.Dial(s.Addr().String(), client.Options{Conns: conns, MaxPipeline: callers})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < conns*callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				key := keys[(i*104729)%nkeys]
				v, ok, err := c.Get(ctx, key)
				if err != nil || !ok || v != valOf(key) {
					b.Errorf("Get(%d) = %d, %v, %v", key, v, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRemotePipelinedWrite times an INSERT through the whole serving
// stack: client flush, wire, server reader, write runs, group commit and
// reply writer, over loopback to an in-process server. 2 connections × 64
// callers each keep both pipelines full; one op is one Insert of a fresh
// key into a SyncNone directory, so the fsync is not what is timed.
func BenchmarkRemotePipelinedWrite(b *testing.B) {
	const (
		conns   = 2
		callers = 64
	)
	ix, err := chameleon.OpenDir(b.TempDir(), chameleon.DirOptions{Sync: chameleon.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(ix, server.Options{OwnsIndex: true})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go s.Serve()    //nolint:errcheck
	defer s.Close() //nolint:errcheck
	c, err := client.Dial(s.Addr().String(), client.Options{Conns: conns, MaxPipeline: callers})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < conns*callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				key := uint64(i)*7919 + 1
				if err := c.Insert(ctx, key, valOf(key)); err != nil {
					b.Errorf("Insert(%d): %v", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
