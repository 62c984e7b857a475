package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/trace"
)

// FuzzSubmit drives hostile query strings and trace bytes through the
// whole /v2 job lifecycle of one server: a submit is answered 202 or a
// 4xx naming the input's fault, never 500; an accepted job reaches a
// terminal state whose /result is 200 or a 4xx; and once the job is
// deleted nothing is left in flight. The seed corpus under
// testdata/fuzz/FuzzSubmit pairs prefixes of the committed traces with
// the query keys a client can send.
func FuzzSubmit(f *testing.F) {
	release := setGate() // a job naming test-gate-spd3 must not park forever
	release()
	// Tight replay limits keep hostile region declarations from turning
	// into large allocations.
	s, err := Open(Config{
		MinSegmentBytes: 1,
		MaxBodyBytes:    1 << 20,
		Limits:          trace.Limits{MaxRegionElems: 1 << 16, MaxTotalElems: 1 << 18},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v2/jobs", bytes.NewReader(body))
		req.URL.RawQuery = query
		w := serve(req)
		switch w.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			waitFor(t, func() bool { return s.InFlight() == 0 }, "a refused submit's slot")
			return
		default:
			t.Fatalf("POST ?%q: status %d\n%s", query, w.Code, w.Body)
		}
		id := decodeJobStatus(t, w.Body.Bytes()).ID
		for deadline := time.Now().Add(10 * time.Second); !client.Terminal(jobState(s, id)); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("POST ?%q: job %s still %s after 10s", query, id, jobState(s, id))
			}
		}
		if res := serve(httptest.NewRequest(http.MethodGet, "/v2/jobs/"+id+"/result", nil)); res.Code != http.StatusOK && (res.Code < 400 || res.Code > 499) {
			t.Fatalf("POST ?%q: /result %d\n%s", query, res.Code, res.Body)
		}
		if res := serve(httptest.NewRequest(http.MethodDelete, "/v2/jobs/"+id, nil)); res.Code != http.StatusNoContent {
			t.Fatalf("DELETE of terminal job %s: %d\n%s", id, res.Code, res.Body)
		}
		waitFor(t, func() bool { return s.InFlight() == 0 }, "nothing in flight after the delete")
	})
}
