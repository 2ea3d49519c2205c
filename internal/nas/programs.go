package nas

import "p2pmpi/internal/mpd"

// RealPrograms is the program table of a real-TCP peer: hostname, spin,
// and the EP and IS kernels of classes S, W, A and B ("ep-S" … "is-B").
// mpiboot runs these programs and p2pmpirun's submitter checks job
// names against the same table, so a job the submitter accepts is one
// every peer can launch.
func RealPrograms() map[string]mpd.Program {
	progs := map[string]mpd.Program{"hostname": mpd.Hostname, "spin": mpd.Spin}
	for _, cls := range []EPClass{EPClassS, EPClassW, EPClassA, EPClassB} {
		progs["ep-"+cls.Name] = EPProgram(cls)
	}
	for _, cls := range []ISClass{ISClassS, ISClassW, ISClassA, ISClassB} {
		progs["is-"+cls.Name] = ISProgram(cls)
	}
	return progs
}
