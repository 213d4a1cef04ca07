package linalg

import "testing"

func benchGenerator(n int) *Dense {
	q := NewDense(n, n)
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := float64((i*31+j*17)%97+1) / 100
			q.Set(i, j, rate)
			row += rate
		}
		q.Set(i, i, -row)
	}
	return q
}

func BenchmarkSteadyStateGTH(b *testing.B) {
	q := benchGenerator(70) // the six-version model's state count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SteadyStateGTH(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformizedPower(b *testing.B) {
	qt := CSRFromDenseT(benchGenerator(70))
	pi := make([]float64, 70)
	pi[0] = 1
	var ws *Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seriesCSR(ws, qt, pi, 1.5, 1e-12, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	m := benchGenerator(70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mul(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoissonWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PoissonWeights(200, 1e-12)
	}
}
