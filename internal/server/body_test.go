package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestReadBody pins that the upload cap answers 413 whether or not the
// body declares its length. The reader's own cases sit next to
// api.ReadBody.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("e 0 1\n"), 20000)

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
