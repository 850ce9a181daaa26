package sta

import (
	"testing"

	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
)

func annotated(t *testing.T, cfg dsp.Config) (*design.Design, *extract.Parasitics) {
	t.Helper()
	d, err := dsp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	if err := Annotate(d, p); err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestAnnotateAllWindowsValid(t *testing.T) {
	d, _ := annotated(t, dsp.Config{Seed: 2, Channels: 1, TracksPerChannel: 40, ChannelLengthUM: 900, LatchFraction: 0.2, ClockSpines: 1})
	for _, n := range d.Nets {
		if !n.Window.Valid {
			t.Fatalf("net %s window not set", n.Name)
		}
		if n.Window.Late < n.Window.Early {
			t.Errorf("net %s window inverted: %+v", n.Name, n.Window)
		}
		if n.Window.Slew <= 0 {
			t.Errorf("net %s has non-positive slew", n.Name)
		}
	}
}

func TestFaninWidensWindow(t *testing.T) {
	d, p := annotated(t, dsp.Config{Seed: 9, Channels: 1, TracksPerChannel: 60, ChannelLengthUM: 1200})
	// A net with fanins must arrive no earlier than the gate delay after
	// its earliest fanin.
	checked := 0
	for _, n := range d.Nets {
		if len(n.Fanins) == 0 {
			continue
		}
		for _, f := range n.Fanins {
			if n.Window.Late < d.Nets[f].Window.Late {
				t.Errorf("net %s late %g before fanin %s late %g",
					n.Name, n.Window.Late, d.Nets[f].Name, d.Nets[f].Window.Late)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no fanin nets generated")
	}
	_ = p
}

func TestSequentialLaunchWindow(t *testing.T) {
	d, _ := annotated(t, dsp.Config{Seed: 4, Channels: 1, TracksPerChannel: 80, ChannelLengthUM: 1000})
	found := false
	for _, n := range d.Nets {
		if n.Drivers[0].Cell.Sequential && len(n.Fanins) == 0 && !n.IsBus() {
			found = true
			if n.Window.Early < clkToQMin {
				t.Errorf("sequential net %s early %g before clk-to-q min", n.Name, n.Window.Early)
			}
		}
	}
	if !found {
		t.Skip("no sequential driver this seed")
	}
}

func TestClockWindowTight(t *testing.T) {
	d, _ := annotated(t, dsp.Config{Seed: 6, Channels: 1, TracksPerChannel: 20, ChannelLengthUM: 2000, ClockSpines: 2})
	for _, n := range d.Nets {
		if !n.ClockNet {
			continue
		}
		width := n.Window.Late - n.Window.Early
		if width > 100e-12 {
			t.Errorf("clock window %g too wide", width)
		}
		return
	}
	t.Fatal("no clock net")
}

func TestCycleDetection(t *testing.T) {
	d, err := dsp.Generate(dsp.Config{Seed: 8, Channels: 1, TracksPerChannel: 5, ChannelLengthUM: 300})
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	// Force a cycle.
	d.Nets[0].Fanins = []int{1}
	d.Nets[1].Fanins = []int{0}
	if err := Annotate(d, p); err == nil {
		t.Error("cycle not detected")
	}
}

func TestLongerNetsHaveLaterWindows(t *testing.T) {
	// Two isolated nets with identical drivers: the longer one must show a
	// larger gate+wire delay (later window for same launch).
	short, err := dsp.ParallelWires(1, 100, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	long, err := dsp.ParallelWires(1, 3000, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := extract.Extract(short, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := extract.Extract(long, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	if err := Annotate(short, ps); err != nil {
		t.Fatal(err)
	}
	if err := Annotate(long, pl); err != nil {
		t.Fatal(err)
	}
	if long.Nets[0].Window.Late <= short.Nets[0].Window.Late {
		t.Errorf("long net window %g not later than short %g",
			long.Nets[0].Window.Late, short.Nets[0].Window.Late)
	}
}

func TestApplyCouplingDeltasWidensOnly(t *testing.T) {
	d, _ := annotated(t, dsp.Config{Seed: 2, Channels: 1, TracksPerChannel: 40, ChannelLengthUM: 900, LatchFraction: 0.2, ClockSpines: 1})
	w0 := d.Nets[0].Window
	w1 := d.Nets[1].Window
	w2 := d.Nets[2].Window
	n, err := ApplyCouplingDeltas(d, []WindowAdjustment{
		{Net: 0, DeltaS: 30e-12},  // slowdown: Late extends
		{Net: 1, DeltaS: -10e-12}, // speedup: Early pulls in
		{Net: 2, DeltaS: 0},       // no change: skipped
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("widened %d windows, want 2", n)
	}
	if got := d.Nets[0].Window; got.Late != w0.Late+30e-12 || got.Early != w0.Early {
		t.Errorf("net 0 window %+v, want Late extended from %+v", got, w0)
	}
	if got := d.Nets[1].Window; got.Early != w1.Early-10e-12 || got.Late != w1.Late {
		t.Errorf("net 1 window %+v, want Early pulled in from %+v", got, w1)
	}
	if got := d.Nets[2].Window; got != w2 {
		t.Errorf("net 2 window %+v changed, want untouched %+v", got, w2)
	}
	// Every applied adjustment must only ever widen the window.
	if d.Nets[0].Window.Late-d.Nets[0].Window.Early < w0.Late-w0.Early ||
		d.Nets[1].Window.Late-d.Nets[1].Window.Early < w1.Late-w1.Early {
		t.Error("a coupling delta narrowed a window")
	}
}

func TestApplyCouplingDeltasRejectsBadNet(t *testing.T) {
	d, _ := annotated(t, dsp.Config{Seed: 2, Channels: 1, TracksPerChannel: 40, ChannelLengthUM: 900})
	if _, err := ApplyCouplingDeltas(d, []WindowAdjustment{{Net: len(d.Nets), DeltaS: 1e-12}}); err == nil {
		t.Error("out-of-range net index accepted")
	}
}
