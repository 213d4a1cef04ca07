package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nvrel/internal/mrgp"
	"nvrel/internal/netdef"
	"nvrel/internal/petri"
)

// cmdAnalyze parses a DSPN from a netdef file, explores it, solves its
// steady state with whichever solver its structure requires, and prints
// the distribution plus structural invariants.
func cmdAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(out)
	netPath := fs.String("net", "", "path to a DSPN definition (see internal/netdef)")
	dot := fs.Bool("dot", false, "emit the parsed net as Graphviz DOT instead of solving")
	reward := fs.String("reward", "", `linear reward over token counts, e.g. "2*#half + #whole"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netPath == "" {
		return errors.New("analyze: -net <file> is required")
	}
	f, err := os.Open(*netPath)
	if err != nil {
		return err
	}
	defer f.Close()

	net, err := netdef.Parse(f)
	if err != nil {
		return err
	}
	if *dot {
		return net.WriteDOT(out)
	}

	g, err := petri.Explore(net, petri.ExploreOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "net %q: %d places, %d transitions, %d tangible states\n",
		net.Name(), net.NumPlaces(), net.NumTransitions(), g.NumStates())

	pi, solver, err := solveGraph(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "solver: %s\n", solver)
	if *reward != "" {
		places := make(map[string]petri.PlaceRef, net.NumPlaces())
		for i := 0; i < net.NumPlaces(); i++ {
			places[net.PlaceName(petri.PlaceRef(i))] = petri.PlaceRef(i)
		}
		rf, err := netdef.ParseReward(*reward, places)
		if err != nil {
			return err
		}
		expected := 0.0
		for s, m := range g.Markings {
			expected += pi[s] * rf(m)
		}
		fmt.Fprintf(out, "expected reward %q = %.8f\n", *reward, expected)
	}
	fmt.Fprintln(out, "steady state:")
	for s, m := range g.Markings {
		if pi[s] < 1e-12 {
			continue
		}
		fmt.Fprintf(out, "  %-40s %.8f\n", net.FormatMarking(m), pi[s])
	}

	if bounded, err := net.StructurallyBounded(); err == nil {
		if bounded {
			fmt.Fprintln(out, "structural boundedness: certified (every place covered by a P-invariant)")
		} else {
			fmt.Fprintln(out, "structural boundedness: no certificate (net may still be bounded)")
		}
	}
	if invs, err := net.PInvariants(); err == nil {
		fmt.Fprintln(out, "place invariants (weights per place):")
		if len(invs) == 0 {
			fmt.Fprintln(out, "  (none)")
		}
		for _, inv := range invs {
			fmt.Fprintf(out, "  %s\n", formatInvariant(net, inv, true))
		}
	}
	if invs, err := net.TInvariants(); err == nil {
		fmt.Fprintln(out, "transition invariants (firing counts per transition):")
		if len(invs) == 0 {
			fmt.Fprintln(out, "  (none)")
		}
		for _, inv := range invs {
			fmt.Fprintf(out, "  %s\n", formatInvariant(net, inv, false))
		}
	}
	return nil
}

// solveGraph picks the cheapest applicable solver.
func solveGraph(g *petri.Graph) ([]float64, string, error) {
	if !g.HasDeterministic() {
		pi, _, err := g.SteadyState(nil, nil, petri.Opts{})
		return pi, "CTMC (GTH)", err
	}
	if sol, _, err := mrgp.Solve(nil, nil, g, mrgp.Opts{}); err == nil {
		return sol.Pi, "Markov-regenerative (clock-synchronous)", nil
	} else if !errors.Is(err, mrgp.ErrClockNotAlwaysEnabled) && !errors.Is(err, mrgp.ErrMixedClocks) {
		return nil, "", err
	}
	sol, err := mrgp.SolveGeneral(nil, nil, g)
	if err != nil {
		return nil, "", err
	}
	return sol.Pi, "Markov-regenerative (general)", nil
}

// formatInvariant renders an invariant as "1*a + 2*b".
func formatInvariant(net *petri.Net, inv []int, places bool) string {
	out := ""
	for i, w := range inv {
		if w == 0 {
			continue
		}
		name := ""
		if places {
			name = net.PlaceName(petri.PlaceRef(i))
		} else {
			name = net.TransitionName(petri.TransitionRef(i))
		}
		if out != "" {
			out += " + "
		}
		if w == 1 {
			out += name
		} else {
			out += fmt.Sprintf("%d*%s", w, name)
		}
	}
	return out
}
