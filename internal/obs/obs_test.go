package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pool.reads.local").Add(7)
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SlowOpNS: -1})
	sp := tracer.Begin(telemetry.SpanContext{}, "pool.read")
	tracer.End(&sp)

	s, err := Serve("127.0.0.1:0", Source{
		Metrics: func() *telemetry.Registry { return reg },
		Stats:   func() any { return map[string]int{"answer": 42} },
		Spans:   tracer.Spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "lmp_pool_reads_local 7") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if !strings.Contains(body, "# TYPE lmp_pool_reads_local counter") {
		t.Fatalf("/metrics missing TYPE line: %q", body)
	}

	code, body = get(t, base+"/stats")
	var stats map[string]int
	if code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil || stats["answer"] != 42 {
		t.Fatalf("/stats body %q: %v", body, err)
	}

	code, body = get(t, base+"/spans")
	var spans []telemetry.Span
	if code != 200 {
		t.Fatalf("/spans: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil || len(spans) != 1 || spans[0].Op != "pool.read" {
		t.Fatalf("/spans body %q: %v", body, err)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

func TestNilSourcesAre404(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Source{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	for _, ep := range []string{"/metrics", "/stats", "/spans"} {
		if code, _ := get(t, base+ep); code != 404 {
			t.Fatalf("%s with nil source: %d, want 404", ep, code)
		}
	}
}
