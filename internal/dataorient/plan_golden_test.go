package dataorient_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// goldenNests lists the nests whose plans TestPlanGolden pins: every
// built-in workload at several sizes, the seeded random loops, every
// testdata .do program, a strided nest whose subscripts touch a sparse
// part of their range and a nest with a three-dimensional reference.
func goldenNests(t *testing.T) map[string]*loop.Nest {
	nests := map[string]*loop.Nest{}
	for _, n := range []int64{1, 2, 7, 40, 80, 120} {
		nests[fmt.Sprintf("fig21/%d", n)] = workloads.Fig21(n, 4).Nest
		nests[fmt.Sprintf("branchy/%d", n)] = workloads.Branchy(n, 4).Nest
		nests[fmt.Sprintf("recurrence/%d/2", n)] = workloads.Recurrence(n, 2, 4).Nest
		nests[fmt.Sprintf("selfrmw/%d", n)] = workloads.SelfRMW(n, 4).Nest
	}
	for _, n := range []int64{2, 3, 5, 12, 16, 20} {
		nests[fmt.Sprintf("stencil/%d", n)] = workloads.Stencil(n, 4).Nest
		nests[fmt.Sprintf("nested/%d/8", n)] = workloads.Nested(n, 8, 4).Nest
	}
	nests["nested/3/1"] = workloads.Nested(3, 1, 4).Nest
	nests["recurrence/30/7"] = workloads.Recurrence(30, 7, 4).Nest
	nests["chain/30/4"] = workloads.Chain(30, 4, 4).Nest
	for seed := int64(1); seed <= 4; seed++ {
		nests[fmt.Sprintf("random/%d", seed)] = workloads.Random(rand.New(rand.NewSource(seed)), 25, 5).Nest
		nests[fmt.Sprintf("random-branchy/%d", seed)] = workloads.RandomBranchy(rand.New(rand.NewSource(seed)), 25).Nest
	}
	files, err := filepath.Glob("../lang/testdata/*.do")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		w, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		nests[filepath.Base(file)] = w.Nest
	}
	nests["strided"] = stridedNest(20)
	nests["three-dims"] = threeDimNest(4, 3)
	return nests
}

// stridedNest touches every sixteenth element of A and a diagonal of B:
//
//	DO I = 1, n
//	  S1: A[16*I] = A[16*I-32] + B[I,I]
//	  S2: B[I+1,I+1] = A[16*I]
func stridedNest(n int64) *loop.Nest {
	a := func(c int64) deps.Ref { return deps.Ref{Array: "A", Index: []expr.Affine{expr.Scaled(1, 0, 16, c)}} }
	b := func(c int64) deps.Ref {
		return deps.Ref{Array: "B", Index: []expr.Affine{expr.Index(1, 0, c), expr.Index(1, 0, c)}}
	}
	return loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}}, []loop.Node{
		loop.S(&deps.Stmt{Name: "S1", Writes: []deps.Ref{a(0)}, Reads: []deps.Ref{a(-32), b(0)}, Cost: 1}),
		loop.S(&deps.Stmt{Name: "S2", Writes: []deps.Ref{b(1)}, Reads: []deps.Ref{a(0)}, Cost: 1}),
	})
}

// threeDimNest reads and writes a three-dimensional array:
//
//	DO I = 1, n
//	DO J = 1, m
//	  S1: V[I,J,I+J] = V[I-1,J,I+J-1] + V[I,J-1,2]
func threeDimNest(n, m int64) *loop.Nest {
	v := func(c1, c2 int64, third expr.Affine) deps.Ref {
		return deps.Ref{Array: "V", Index: []expr.Affine{expr.Index(2, 0, c1), expr.Index(2, 1, c2), third}}
	}
	sum := expr.Index(2, 0, 0).Add(expr.Index(2, 1, 0))
	return loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}, {Name: "J", Lo: 1, Hi: m}}, []loop.Node{
		loop.S(&deps.Stmt{Name: "S1", Writes: []deps.Ref{v(0, 0, sum)},
			Reads: []deps.Ref{v(-1, 0, sum.AddConst(-1)), v(0, -1, expr.Const(2, 2))}, Cost: 1}),
	})
}

// TestPlanGolden pins a digest of every field of the data-oriented plan
// (dataorient.PlanDigest) for each golden nest, built by BuildPlan and with
// elements numbered through the sparse map.
func TestPlanGolden(t *testing.T) {
	nests := goldenNests(t)
	if len(nests) != len(planGolden) {
		t.Errorf("%d golden nests but %d pinned digests", len(nests), len(planGolden))
	}
	for name, nest := range nests {
		want := planGolden[name]
		if got := dataorient.PlanDigest(dataorient.BuildPlan(nest)); got != want {
			t.Errorf("%s: plan digest %s, want %s", name, got, want)
		}
		if got := dataorient.PlanDigest(dataorient.BuildSparsePlan(nest)); got != want {
			t.Errorf("%s: sparse plan digest %s, want %s", name, got, want)
		}
	}
	// The strided nest touches one sixteenth of A's box and a diagonal of
	// B's, so BuildPlan numbers it through the map; the others are dense.
	if dataorient.Dense(nests["strided"]) || !dataorient.Dense(nests["stencil/16"]) || !dataorient.Dense(nests["three-dims"]) {
		t.Error("strided nest numbered densely, or stencil or three-dims sparsely")
	}
}

// planGolden holds the digests of the plans the map-and-sort BuildPlan
// built before element ids became dense.
var planGolden = map[string]string{
	"branchy.do":       "ef450ef519b211cc4d52d737e6e4a47b569410e5c94dfab192f766da6da26d68",
	"branchy/1":        "32029f7878d3b931ec4b4036ccb08cc98bb69d3c0cb60b304e04e663921bfc49",
	"branchy/120":      "e01031ca361b68b6b85051928d17a09378bf6e56981001afd79b36d2061f7401",
	"branchy/2":        "18b2cd50d6e6935a7d12d40567b1d9e5932fdf75cd004e821507dd4266eaa29c",
	"branchy/40":       "85335707877d8bd3dd2fd75d767f069391f7f25ab21f5dc388ef077ee42c5f91",
	"branchy/7":        "9e88a0c19a37bb7d3ab6760879663f63da584bad747577a24bef4f11fce0add0",
	"branchy/80":       "6605e2d02238439fec2ca416b770b887451579f69bbed4b5e6af171a00608402",
	"chain/30/4":       "d5a8dbd2a643c49a2eddd5063c9de8b8d23c93f69afff0a4ec1e45c6e459b718",
	"fig21.do":         "dbe273466abf02adb51f63c3ca22ea40351ee5443392d77275623170e72e09e2",
	"fig21/1":          "c2fa4011ede3bd54ca623754fedf50d0abab556e7be54f3ab77fe6a8093e0dbd",
	"fig21/120":        "2e0727140aaf30fc84a75db6148750a3adb3891ffa361c64265fe01e0e65dd69",
	"fig21/2":          "3f95fa8c40e71b4393ee674813b2637e64e477194ac9557bb534b425c7183393",
	"fig21/40":         "13bff2899ca853a84448b88d9a63b3806da7a631e0a20fb4ea02bace712e0d8b",
	"fig21/7":          "80b7dc7503333c34eb8d7bebb0c793f4237a4072e16a9338722c2290632fd8af",
	"fig21/80":         "45e11d89031a0d65d8d0fa8e5c75a8c266c67e79f96bde9f8712b9669616f017",
	"nested.do":        "3b96c08873f49880c72412f9aa326f4069d6ccb3395c64d3809f715a3d2e81cc",
	"nested/12/8":      "ff4a137e4b18d18ffdadb71efc62eee509b2f14e35f237c85d2e072715f80b84",
	"nested/16/8":      "eba39f5fe5df7f464ab7013e5d8a49d8f78f79dc340ed53cde973b12ef61f0e5",
	"nested/2/8":       "ac097fb500ea5ce4e04d1203ef4e50fc98be78337f06fce2adb745a588bace7f",
	"nested/20/8":      "b01567759643303f0f6157821f2fa67b676d783a92f2cb7a670faef6a4b41721",
	"nested/3/1":       "d6b814e50f9323573b9f15342c79b7c19c1cda62ecec7af71b359e033a4fd89b",
	"nested/3/8":       "96b293681733fdcc54b54e4a387c4ebb2b421bef949c8a42e400c87ae5d6cd64",
	"nested/5/8":       "a46315c65923b80e6a0606f8fd649b1f6856f3349144127f2c30c68dbde10936",
	"random-branchy/1": "6439c8f5314178d35ab3f5adef1a0d32a232c3b511f3288cf9c41061d7d59c64",
	"random-branchy/2": "622f7611ae09f93bfa3ee0834a248abb89128866868f851419670507edb7a173",
	"random-branchy/3": "ddca4f160939ff8de02b9fd4adbf79283df155532d0a02e827d000bb538e3c66",
	"random-branchy/4": "9742494ed85826ed7aa361b474aa8c2f48e005f77c9cc8ae17270ab2e1a8f8d8",
	"random/1":         "28e1e043fe987f384285cb876b291cb038f7e82fc003fb81c28ac0926e85b7f5",
	"random/2":         "f029297f85507d8b46aa97170c7ab718c41b16d61f375383ee5b33efc00f10ca",
	"random/3":         "0573669f82ade5acf97fd2ea7459f942af9122b2d8fb66f3dbb4c3733d1a6a35",
	"random/4":         "65473758a0d3c9163cb9925401393be1bb8f13726130c441b2c7511b700961dd",
	"recurrence.do":    "2dfbfd2752ccc0e5183dbdb840e4fad6e836421410c038e3b0829a65825b5fb4",
	"recurrence/1/2":   "434fb7cf09ccc9b72c754640575a7096600bdb3aec6f954efbb0efdd260b04aa",
	"recurrence/120/2": "269720918e8f0497f9be497e26265f90b192782ecf445440cc60d1af0cdf22c0",
	"recurrence/2/2":   "ee2c2f47a148a04d8fd4dcb1c40a1c6898724b85b000ce19a3bcff0e92033950",
	"recurrence/30/7":  "bd6192d155531827eba14fb811e34810974778578e6beb37a27d523ff60f55b8",
	"recurrence/40/2":  "81afc12560e75f521417403dfb058e4b4d183b335f589ac8c71e352f54d702a8",
	"recurrence/7/2":   "55854e95940d83484aea245403a07aab19e7b96121297fc948525567c0c85f82",
	"recurrence/80/2":  "cf7e04978ec994c140abb101d65d732b8090a837ff251da7cf0aa164fb59f6cd",
	"selfrmw/1":        "0f67ed74fdb10668fefa8a014c543e1c9a94d14ac33d8adf69a8469d9b435423",
	"selfrmw/120":      "35821b39f49b17bd1fe3768460d04a3392166a00f6369b340d0c033ade420364",
	"selfrmw/2":        "27b0c2d26501b4003a772647d175c4f34517ef39202e8eb495a7227bde268d01",
	"selfrmw/40":       "a5941ac6374d58b7c62d9d1ad086969d211325c2aeaf98458346266e30e1f8a1",
	"selfrmw/7":        "43c7d5e5f751bcabad4c19ea4ef3fae662e7481fd7385791e6d0a433568d0c1a",
	"selfrmw/80":       "beb0a2b2e4e70a8977087bd29d40b3d689eb5b1c86586eed22cdc5b06746971a",
	"stencil.do":       "f64cc096ab31688f988b30c14b9f3920cfd450aaceba47380c9460acc28e6699",
	"stencil/12":       "f64cc096ab31688f988b30c14b9f3920cfd450aaceba47380c9460acc28e6699",
	"stencil/16":       "985939f8084bb939b37183d0bb84fe65e2652e1ddc05c4fb342210afafcc098b",
	"stencil/2":        "900d280dcdec5552db3c8982d529672ad4b4b2e85d223b4c35c2b99c6a55a6fe",
	"stencil/20":       "e9c0fbdfa9f5fee36543e05070b1a2dc8b113a2a8ddda099941841f0fd8914ed",
	"stencil/3":        "7d895a8fdcaa049e10b6601d9619621671c49d2fd8d79d46d6171cf43e71b506",
	"stencil/5":        "1afd1b7fbd586708f778b0f0b5c86378b161fc6ba9158ca817d4888e6f7a31d5",
	"strided":          "2292a2863db73289d090d32230f342eb7144e8663b5ba644c9b87f6e61f4177e",
	"three-dims":       "97aa9f9afc96e9c55b858ed4a0864376d234983f2d1d83f7055484e9177465b6",
}
