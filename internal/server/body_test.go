package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
)

// TestReadBody pins readBody's buffer sizing: growth follows the bytes
// received, a declared length only caps it, and the upload cap still
// answers 413 whether or not the body declares its length.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("e 0 1\n"), 20000)

	t.Run("stalled", func(t *testing.T) {
		// Declares 64 MiB, sends 1 KB, then its connection times out.
		stall := errors.New("i/o timeout")
		r := io.MultiReader(bytes.NewReader(body[:1024]), iotest.ErrReader(stall))
		buf, err := readBody(r, 64<<20, DefaultMaxUploadBytes)
		if !errors.Is(err, stall) || len(buf) != 1024 {
			t.Fatalf("got %d bytes, err %v; want 1024 bytes and the stall", len(buf), err)
		}
		if cap(buf) > 2*len(buf) {
			t.Fatalf("buffer cap %d for %d bytes received", cap(buf), len(buf))
		}
	})

	t.Run("chunked", func(t *testing.T) {
		buf, err := readBody(iotest.HalfReader(bytes.NewReader(body)), -1, DefaultMaxUploadBytes)
		if err != nil || !bytes.Equal(buf, body) {
			t.Fatalf("got %d bytes, err %v; want the %d-byte body", len(buf), err, len(body))
		}
	})

	t.Run("exact", func(t *testing.T) {
		buf, err := readBody(bytes.NewReader(body), int64(len(body)), DefaultMaxUploadBytes)
		if err != nil || !bytes.Equal(buf, body) {
			t.Fatalf("got %d bytes, err %v; want the %d-byte body", len(buf), err, len(body))
		}
		if cap(buf) != len(body)+1 {
			t.Fatalf("buffer cap %d, want Content-Length+1 = %d", cap(buf), len(body)+1)
		}
	})

	t.Run("over cap", func(t *testing.T) {
		s, err := New(Config{PoolSize: 1, MaxUploadBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer func() {
			ts.Close()
			s.Close()
		}()
		for _, c := range []struct {
			name string
			r    io.Reader
		}{
			{"declared", bytes.NewReader(body)},
			{"chunked", io.MultiReader(bytes.NewReader(body))},
		} {
			resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", c.r)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s over-cap upload: status %d, want 413", c.name, resp.StatusCode)
			}
		}
	})
}
