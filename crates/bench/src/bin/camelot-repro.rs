//! `camelot-repro <id...|all>`: prints the paper artifacts the harness
//! regenerates, by their id in `camelot_harness::INDEX`, next to the
//! paper's anchors. `QUICK=1` shrinks the repetition counts.

use camelot_harness::INDEX;
use camelot_types::flags::Tool;

fn main() {
    let ids: Vec<&str> = INDEX.iter().map(|(id, ..)| *id).collect();
    let tool = Tool {
        name: "camelot-repro",
        flags: &[],
        positional: &format!("<{}|all>...", ids.join("|")),
    };
    let picked = tool.from_env(|p| {
        if p.positionals.is_empty() {
            return Err("name at least one experiment".into());
        }
        let mut picked = Vec::new();
        for arg in &p.positionals {
            let rows = INDEX.iter().filter(|(id, ..)| arg == "all" || arg == id);
            let rows: Vec<_> = rows.collect();
            if rows.is_empty() {
                return Err(format!("no experiment {arg}"));
            }
            picked.extend(rows);
        }
        Ok(picked)
    });
    for (_, _, run) in picked {
        println!("{}", run(camelot_bench::quick()));
    }
}
