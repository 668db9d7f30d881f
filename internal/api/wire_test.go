package api

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"testing"
	"testing/iotest"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestReadBody pins ReadBody's buffer sizing: growth follows the bytes
// received, a declared length only caps it, and a declared length over
// the cap is refused before a byte is read.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("e 0 1\n"), 20000)

	t.Run("stalled", func(t *testing.T) {
		// Declares 64 MiB, sends 1 KB, then its connection times out.
		stall := errors.New("i/o timeout")
		r := io.MultiReader(bytes.NewReader(body[:1024]), iotest.ErrReader(stall))
		buf, err := ReadBody(r, 64<<20, MaxAnswerBytes)
		if !errors.Is(err, stall) || len(buf) != 1024 {
			t.Fatalf("got %d bytes, err %v; want 1024 bytes and the stall", len(buf), err)
		}
		if cap(buf) > 2*len(buf) {
			t.Fatalf("buffer cap %d for %d bytes received", cap(buf), len(buf))
		}
	})

	t.Run("chunked", func(t *testing.T) {
		buf, err := ReadBody(iotest.HalfReader(bytes.NewReader(body)), -1, MaxAnswerBytes)
		if err != nil || !bytes.Equal(buf, body) {
			t.Fatalf("got %d bytes, err %v; want the %d-byte body", len(buf), err, len(body))
		}
	})

	t.Run("exact", func(t *testing.T) {
		buf, err := ReadBody(bytes.NewReader(body), int64(len(body)), MaxAnswerBytes)
		if err != nil || !bytes.Equal(buf, body) {
			t.Fatalf("got %d bytes, err %v; want the %d-byte body", len(buf), err, len(body))
		}
		if cap(buf) != len(body)+1 {
			t.Fatalf("buffer cap %d, want Content-Length+1 = %d", cap(buf), len(body)+1)
		}
	})

	t.Run("declared over cap", func(t *testing.T) {
		r := &countingReader{r: bytes.NewReader(body)}
		_, err := ReadBody(r, int64(len(body)), 4096)
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) || r.n != 0 {
			t.Fatalf("read %d bytes, err %v; want *http.MaxBytesError and none read", r.n, err)
		}
	})
}

// FuzzReadBody holds ReadBody to its contract for any body, declared
// length, limit and chunking: a body that fits the limit, with a
// declared length that fits too, comes back exactly; anything else is an
// *http.MaxBytesError after at most limit+1 bytes read; and the buffer
// is never more than twice what it holds, past its first 512 bytes.
func FuzzReadBody(f *testing.F) {
	f.Add([]byte("e 0 1\n"), int64(6), uint32(4096), uint8(0))
	f.Add([]byte("e 0 1\n"), int64(-1), uint32(3), uint8(1))
	f.Add(bytes.Repeat([]byte("e 0 1\n"), 100), int64(-1), uint32(65536), uint8(0))
	f.Add(bytes.Repeat([]byte("e 0 1\n"), 300), int64(1<<20), uint32(65536), uint8(2))
	f.Add(bytes.Repeat([]byte("e 0 1\n"), 300), int64(10), uint32(1800), uint8(2))
	f.Add([]byte{}, int64(0), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, declared int64, limit uint32, mode uint8) {
		declared = max(declared, -1)
		lim := int64(limit % 65537)
		src := &countingReader{r: bytes.NewReader(body)}
		var r io.Reader = src
		switch mode % 3 {
		case 1:
			r = iotest.OneByteReader(src)
		case 2:
			r = iotest.HalfReader(src)
		}
		buf, err := ReadBody(r, declared, lim)
		if int64(len(body)) <= lim && declared <= lim {
			if err != nil || !bytes.Equal(buf, body) {
				t.Fatalf("fitting body: got %d bytes, err %v; want the %d-byte body", len(buf), err, len(body))
			}
		} else {
			var tooLarge *http.MaxBytesError
			if !errors.As(err, &tooLarge) || src.n > lim+1 {
				t.Fatalf("over-cap body: read %d bytes, err %v; want *http.MaxBytesError within %d", src.n, err, lim+1)
			}
		}
		if cap(buf) > max(2*len(buf), minBodyBuf) {
			t.Fatalf("buffer cap %d for %d bytes", cap(buf), len(buf))
		}
	})
}
