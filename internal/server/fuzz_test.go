package server

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"rubix/internal/sim"
)

// FuzzDecodeRequest feeds arbitrary bodies through the request decoding
// that /run and /batch perform before anything reaches the Suite: strict
// JSON decoding into a RunSpec or a BatchRequest, then validateSpec. Bad
// input must come back as an error, never a panic, and a spec that passes
// validation must name a workload, mapping and mitigation with a positive
// TRH.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128}`))
	f.Add([]byte(`{"Workload":"mcf","Mapping":"rubixs-gs4","Mitigation":"aqua","TRH":128,"LineCensus":true}`))
	f.Add([]byte(`{"specs":[{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128},{"Workload":"xz","Mapping":"rubixs-gs4","Mitigation":"aqua","TRH":128}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128,"Bogus":1}`))
	f.Add([]byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128} extra`))
	f.Add([]byte(`{"Workload":"xz"}`))
	f.Add([]byte(`{"specs":[]}`))
	f.Add([]byte(`{"specs":[{"Workload":"xz"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		valid := func(spec sim.RunSpec) {
			if validateSpec(spec) != nil {
				return
			}
			if spec.Workload == "" || spec.Mapping == "" || spec.Mitigation == "" || spec.TRH <= 0 {
				t.Fatalf("validateSpec accepted %+v", spec)
			}
		}
		var spec sim.RunSpec
		if decodeBody(httptest.NewRequest("POST", "/run", bytes.NewReader(body)), &spec) == nil {
			valid(spec)
		}
		var req BatchRequest
		if decodeBody(httptest.NewRequest("POST", "/batch", bytes.NewReader(body)), &req) == nil {
			for _, spec := range req.Specs {
				valid(spec)
			}
		}
	})
}
