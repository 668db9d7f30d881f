package server

import (
	"io"
	"net/http"
)

// minBodyBuf is readBody's first buffer when the sender declares no
// smaller length.
const minBodyBuf = 512

// readBody reads all of r into one buffer, failing with an
// *http.MaxBytesError once more than limit bytes arrive. declared is the
// length the sender announced (Content-Length; -1 when unknown).
//
// The buffer doubles from the bytes actually received, never past
// declared+1, so an honest body fills it exactly, and regrowth copies
// less than twice its size in all, where io.ReadAll's 1.25× steps copy
// about five times. The +1 leaves room for the read that reports EOF. A
// declared length only caps growth: a body that declares 64 MiB and then
// stalls holds a buffer of at most twice what it has sent.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(minBodyBuf)
	if declared >= 0 {
		size = min(size, declared+1)
	}
	buf := make([]byte, 0, min(size, limit+1))
	for {
		if len(buf) == cap(buf) {
			size := 2 * int64(len(buf))
			if declared >= int64(len(buf)) {
				size = min(size, declared+1)
			}
			grown := make([]byte, len(buf), min(size, limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
