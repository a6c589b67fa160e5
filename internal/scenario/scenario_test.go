package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzSpecNormalized feeds arbitrary JSON to the spec decoder and
// normalization, the path every submitted plasmad body takes. For any
// input that decodes, Normalized must not panic; a normalized spec must be
// a fixed point of Normalized; its JSON round trip must keep its Key; and
// only the known strategy and Poisson-exchange spellings may pass.
func FuzzSpecNormalized(f *testing.F) {
	// The cases pinned by cluster's TestSpecKeyCanonicalBytesPinned.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"case":"nozzle","mesh_n":3,"mesh_nz":8,"radius":0.05,"length":0.2,` +
		`"ranks":2,"steps":8,"sim_workers":1,"pic_substeps":2,"dt_dsmc":1.2586e-6,` +
		`"inject_h":1500,"inject_ion":150,"temperature":300,"drift":10000,` +
		`"weight_h":1e12,"weight_ion":6000,"strategy":"dc","poisson_exchange":"owner",` +
		`"poisson_tol":1e-6,"lb_t":5,"lb_threshold":2}`))
	f.Add([]byte(`{"priority":9}`))
	f.Add([]byte(`{"seed":1}`))
	f.Add([]byte(`{"snapshot_every":1}`))
	// Edges of the zero-value rules and the validation.
	f.Add([]byte(`{"case":"conical","outlet_radius":0.08,"no_lb":true,"lb_t":7}`))
	f.Add([]byte(`{"strategy":"CC","poisson_exchange":"halo","drift":-3}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var spec Spec
		if json.Unmarshal(blob, &spec) != nil {
			return
		}
		norm, err := spec.Normalized()
		if err != nil {
			return
		}
		if spec.Strategy != "" && spec.Strategy != "dc" && spec.Strategy != "cc" {
			t.Fatalf("strategy %q accepted", spec.Strategy)
		}
		if spec.PoissonExchange != "" && spec.PoissonExchange != "owner" && spec.PoissonExchange != "replicated" {
			t.Fatalf("poisson_exchange %q accepted", spec.PoissonExchange)
		}
		again, err := norm.Normalized()
		if err != nil {
			t.Fatalf("normalized spec rejected on a second pass: %v", err)
		}
		if again != norm {
			t.Fatalf("Normalized is not idempotent:\n once  %+v\n twice %+v", norm, again)
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("normalized spec does not decode: %v", err)
		}
		if back.Key() != norm.Key() {
			t.Fatalf("JSON round trip moved the key of %s", enc)
		}
	})
}

// TestConfigNormalizes: Config fills the defaults itself, so the zero Spec
// builds the default plume, and NoLB leaves the balancer off.
func TestConfigNormalizes(t *testing.T) {
	ref, err := Spec{MeshN: 2, MeshNZ: 4}.Grids()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Spec{}.Config(ref)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Steps != 8 || cfg.InjectIonPerStep != 150 || cfg.LB == nil || cfg.LB.T != 5 || cfg.Reactions == nil {
		t.Fatalf("zero spec did not build the default plume: %+v", cfg)
	}
	if cfg, err := (Spec{NoLB: true, NoReactions: true}).Config(ref); err != nil || cfg.LB != nil || cfg.Reactions != nil {
		t.Fatalf("no_lb/no_reactions not honoured: lb=%v reactions=%v err=%v", cfg.LB, cfg.Reactions, err)
	}
	if _, err := (Spec{Strategy: "mpi"}).Config(ref); err == nil {
		t.Fatal("Config accepted an unknown strategy")
	}
}
