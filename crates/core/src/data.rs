//! Unified task encoding and dataset assembly.
//!
//! Every task is rendered into the paper's unified text surface with task
//! prefix tokens (Figure 5): `<nl>`, `<vql>`, `<schema>`, `<table>`,
//! `<question>`, `<answer>`, `<description>`. Inputs compose the segments
//! each task needs; outputs carry the prefix of their corpus so the
//! Bidirectional Dual-Corpus objective can swap direction without
//! ambiguity.

use corpus::{Corpus, Split};
use nn::engine::{EncodeRequest, RequestTag};
use tokenizer::WordTokenizer;
use vql::encode::{encode_schema, encode_table, LinearTable};
use vql::schema::DbSchema;

use crate::filtration::filter_schema;

/// The four downstream tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Task {
    TextToVis,
    VisToText,
    FeVisQa,
    TableToText,
}

impl Task {
    pub const ALL: [Task; 4] = [
        Task::TextToVis,
        Task::VisToText,
        Task::FeVisQa,
        Task::TableToText,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Task::TextToVis => "text-to-vis",
            Task::VisToText => "vis-to-text",
            Task::FeVisQa => "fevisqa",
            Task::TableToText => "table-to-text",
        }
    }

    /// The prefix token of this task's *output* corpus.
    pub fn output_prefix(&self) -> &'static str {
        match self {
            Task::TextToVis => "<vql>",
            Task::VisToText | Task::TableToText => "<description>",
            Task::FeVisQa => "<answer>",
        }
    }
}

/// The serving engine tags each request with the task it targets.
impl RequestTag for Task {
    fn label(&self) -> &'static str {
        Task::label(self)
    }
}

/// One encoded example ready for tokenization.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskExample {
    pub task: Task,
    pub db_name: String,
    pub split: Split,
    pub input: String,
    pub output: String,
    /// Text-to-vis only: the gold standardized query.
    pub gold_query: Option<String>,
    /// Text-to-vis only: whether the gold query joins tables.
    pub has_join: bool,
}

/// Builds the input text for text-to-vis: `<nl> question <schema> …` with
/// schema filtration applied (§III-B).
pub fn text_to_vis_input(question: &str, schema: &DbSchema) -> String {
    let sub = filter_schema(question, schema);
    format!("<nl> {question} <schema> {}", encode_schema(&sub))
}

/// Builds the input for vis-to-text: `<vql> query <schema> …` restricted to
/// the tables the query touches.
pub fn vis_to_text_input(query_text: &str, schema: &DbSchema) -> String {
    let sub = match vql::parse_query(query_text) {
        Ok(q) => {
            let tables = q.tables();
            let restricted = schema.restricted_to(&tables);
            if restricted.tables.is_empty() {
                schema.clone()
            } else {
                restricted
            }
        }
        Err(_) => schema.clone(),
    };
    format!("<vql> {query_text} <schema> {}", encode_schema(&sub))
}

/// Builds the input for table-to-text: `<table> …`.
pub fn table_to_text_input(table: &LinearTable) -> String {
    format!("<table> {}", encode_table(table))
}

/// Builds the input for FeVisQA:
/// `<question> q <vql> query <schema> … <table> …`.
pub fn fevisqa_input(
    question: &str,
    query_text: &str,
    schema: &DbSchema,
    table: &LinearTable,
) -> String {
    let sub = match vql::parse_query(query_text) {
        Ok(q) => {
            let restricted = schema.restricted_to(&q.tables());
            if restricted.tables.is_empty() {
                schema.clone()
            } else {
                restricted
            }
        }
        Err(_) => schema.clone(),
    };
    format!(
        "<question> {question} <vql> {query_text} <schema> {} <table> {}",
        encode_schema(&sub),
        encode_table(table)
    )
}

/// One serving-time request for any of the four tasks, carrying the raw
/// ingredients (question/query/schema/table) rather than a pre-encoded
/// input string.
///
/// [`TaskRequest::input_text`] renders the paper's unified encoding for
/// the request — including *per-request* schema filtration for
/// text-to-vis and query-table restriction for vis-to-text / FeVisQA —
/// so the serving front door (`crates/serve`) and the offline dataset
/// builder ([`TaskDatasets::build`]) share one construction path.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskRequest {
    TextToVis {
        question: String,
        schema: DbSchema,
    },
    VisToText {
        query: String,
        schema: DbSchema,
    },
    FeVisQa {
        question: String,
        query: String,
        schema: DbSchema,
        table: LinearTable,
    },
    TableToText {
        table: LinearTable,
    },
}

impl TaskRequest {
    /// Which of the four tasks this request targets.
    pub fn task(&self) -> Task {
        match self {
            TaskRequest::TextToVis { .. } => Task::TextToVis,
            TaskRequest::VisToText { .. } => Task::VisToText,
            TaskRequest::FeVisQa { .. } => Task::FeVisQa,
            TaskRequest::TableToText { .. } => Task::TableToText,
        }
    }

    /// Renders the unified model input for this request, running schema
    /// filtration (§III-B) on the request's own question/query — the
    /// serving-path twin of the builders above.
    pub fn input_text(&self) -> String {
        match self {
            TaskRequest::TextToVis { question, schema } => text_to_vis_input(question, schema),
            TaskRequest::VisToText { query, schema } => vis_to_text_input(query, schema),
            TaskRequest::FeVisQa {
                question,
                query,
                schema,
                table,
            } => fevisqa_input(question, query, schema, table),
            TaskRequest::TableToText { table } => table_to_text_input(table),
        }
    }

    /// The serving engine's prefix-cache key for this request: the
    /// content hash of the standardized, filtered, tokenized input —
    /// exactly the token sequence `serve::ServeRequest::from_task`
    /// admits. Two requests share cached encoder state iff their keys
    /// (and underlying tokens) match, so the key must be computed over
    /// the *post-filtration* encoding: the same question against a
    /// different schema, or vice versa, keys differently.
    pub fn cache_key(&self, tok: &WordTokenizer) -> u64 {
        nn::prefix_hash(&self.encode(tok))
    }
}

/// What `serve::ServeRequest::from_task` admits: the unified input
/// encoding, tokenized with a trailing EOS.
impl EncodeRequest for TaskRequest {
    type Tag = Task;
    type Tokenizer = WordTokenizer;

    fn tag(&self) -> Task {
        self.task()
    }

    fn encode(&self, tok: &WordTokenizer) -> Vec<u32> {
        tok.encode_with_eos(&self.input_text())
    }
}

/// Prefixes an output with its corpus token.
pub fn prefixed_output(task: Task, text: &str) -> String {
    format!("{} {text}", task.output_prefix())
}

/// Strips a task's output prefix from a model prediction.
pub fn strip_prefix(task: Task, prediction: &str) -> String {
    prediction
        .trim()
        .strip_prefix(task.output_prefix())
        .unwrap_or(prediction)
        .trim()
        .to_string()
}

/// All task datasets, encoded and split.
#[derive(Debug, Clone, Default)]
pub struct TaskDatasets {
    pub examples: Vec<TaskExample>,
}

impl TaskDatasets {
    /// Encodes the whole corpus into task examples.
    pub fn build(corpus: &Corpus) -> TaskDatasets {
        let mut examples = Vec::new();
        for e in &corpus.nvbench {
            let Some(db) = corpus.database(&e.db_name) else {
                continue;
            };
            let schema = db.schema();
            let split = corpus.split_of(&e.db_name);
            examples.push(TaskExample {
                task: Task::TextToVis,
                db_name: e.db_name.clone(),
                split,
                input: text_to_vis_input(&e.question, &schema),
                output: prefixed_output(Task::TextToVis, &e.query),
                gold_query: Some(e.query.clone()),
                has_join: e.has_join,
            });
            examples.push(TaskExample {
                task: Task::VisToText,
                db_name: e.db_name.clone(),
                split,
                input: vis_to_text_input(&e.query, &schema),
                output: prefixed_output(Task::VisToText, &e.description),
                gold_query: None,
                has_join: e.has_join,
            });
        }
        for e in &corpus.fevisqa {
            let Some(db) = corpus.database(&e.db_name) else {
                continue;
            };
            let schema = db.schema();
            examples.push(TaskExample {
                task: Task::FeVisQa,
                db_name: e.db_name.clone(),
                split: corpus.split_of(&e.db_name),
                input: fevisqa_input(&e.question, &e.query, &schema, &e.table),
                output: prefixed_output(Task::FeVisQa, &e.answer),
                gold_query: None,
                has_join: false,
            });
        }
        for e in corpus.chart2text.iter().chain(corpus.wikitabletext.iter()) {
            examples.push(TaskExample {
                task: Task::TableToText,
                db_name: e.db_name.clone(),
                split: corpus.split_of(&e.db_name),
                input: table_to_text_input(&e.table),
                output: prefixed_output(Task::TableToText, &e.description),
                gold_query: None,
                has_join: false,
            });
        }
        TaskDatasets { examples }
    }

    /// Examples of one task in one split.
    pub fn of(&self, task: Task, split: Split) -> Vec<&TaskExample> {
        self.examples
            .iter()
            .filter(|e| e.task == task && e.split == split)
            .collect()
    }

    /// Every text surface in the datasets (vocabulary fitting). Includes
    /// all splits: the word-level tokenizer stands in for an open subword
    /// vocabulary, which would cover unseen schema identifiers by
    /// composition.
    pub fn all_texts(&self) -> impl Iterator<Item = &str> {
        self.examples
            .iter()
            .flat_map(|e| [e.input.as_str(), e.output.as_str()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusConfig;

    fn datasets() -> TaskDatasets {
        let corpus = Corpus::generate(&CorpusConfig {
            seed: 11,
            dbs_per_domain: 1,
            queries_per_db: 5,
            facts_per_db: 3,
        });
        TaskDatasets::build(&corpus)
    }

    #[test]
    fn builds_examples_for_all_tasks_and_splits() {
        let d = datasets();
        for task in Task::ALL {
            assert!(
                !d.of(task, Split::Train).is_empty(),
                "no train data for {}",
                task.label()
            );
            assert!(
                !d.of(task, Split::Test).is_empty(),
                "no test data for {}",
                task.label()
            );
        }
    }

    #[test]
    fn text_to_vis_inputs_carry_both_prefixes() {
        let d = datasets();
        for e in d.of(Task::TextToVis, Split::Train).iter().take(10) {
            assert!(e.input.starts_with("<nl> "), "{}", e.input);
            assert!(e.input.contains("<schema> "), "{}", e.input);
            assert!(e.output.starts_with("<vql> "), "{}", e.output);
            assert!(e.gold_query.is_some());
        }
    }

    #[test]
    fn fevisqa_inputs_have_all_four_segments() {
        let d = datasets();
        for e in d.of(Task::FeVisQa, Split::Train).iter().take(10) {
            for seg in ["<question> ", "<vql> ", "<schema> ", "<table> "] {
                assert!(e.input.contains(seg), "missing {seg} in {}", e.input);
            }
            assert!(e.output.starts_with("<answer> "));
        }
    }

    #[test]
    fn strip_prefix_roundtrips() {
        for task in Task::ALL {
            let out = prefixed_output(task, "hello world");
            assert_eq!(strip_prefix(task, &out), "hello world");
        }
        // Un-prefixed predictions survive unchanged.
        assert_eq!(strip_prefix(Task::TextToVis, "raw text"), "raw text");
    }

    #[test]
    fn filtration_shrinks_schema_in_inputs() {
        let d = datasets();
        // Inputs referencing only one table should not embed both tables.
        let narrowed = d
            .of(Task::TextToVis, Split::Train)
            .iter()
            .filter(|e| {
                let schema_part = e.input.split("<schema> ").nth(1).unwrap_or("");
                schema_part.matches(" : ").count() == 1
            })
            .count();
        assert!(narrowed > 0, "filtration never narrowed a schema");
    }

    #[test]
    fn vis_to_text_restricts_to_query_tables() {
        let d = datasets();
        for e in d.of(Task::VisToText, Split::Train).iter().take(10) {
            let query_part = e
                .input
                .strip_prefix("<vql> ")
                .unwrap()
                .split(" <schema> ")
                .next()
                .unwrap();
            let q = vql::parse_query(query_part).unwrap();
            let schema_part = e.input.split("<schema> ").nth(1).unwrap();
            for t in q.tables() {
                assert!(schema_part.contains(&format!("{t} :")), "{schema_part}");
            }
        }
    }

    #[test]
    fn task_request_matches_dataset_builders() {
        use vql::schema::{DbSchema, TableSchema};
        let schema = DbSchema::new(
            "gallery",
            vec![
                TableSchema::new("artist", vec!["artist_id".into(), "country".into()]),
                TableSchema::new("exhibit", vec!["theme".into(), "ticket_price".into()]),
            ],
        );
        let req = TaskRequest::TextToVis {
            question: "pie chart of artist country counts".into(),
            schema: schema.clone(),
        };
        assert_eq!(req.task(), Task::TextToVis);
        assert_eq!(
            req.input_text(),
            text_to_vis_input("pie chart of artist country counts", &schema)
        );
        // Per-request filtration applies: only the referenced table stays.
        assert!(req.input_text().contains("artist"));
        assert!(!req.input_text().contains("ticket_price"));

        let table = LinearTable::new(vec!["theme".into()], vec![vec!["modern".into()]]);
        let req = TaskRequest::FeVisQa {
            question: "what is shown".into(),
            query: "visualize bar select theme , count ( theme ) from exhibit".into(),
            schema: schema.clone(),
            table: table.clone(),
        };
        assert_eq!(req.task(), Task::FeVisQa);
        assert!(req.input_text().starts_with("<question> "));

        let req = TaskRequest::TableToText {
            table: table.clone(),
        };
        assert_eq!(req.input_text(), table_to_text_input(&table));
    }

    #[test]
    fn all_texts_covers_inputs_and_outputs() {
        let d = datasets();
        let n = d.all_texts().count();
        assert_eq!(n, d.examples.len() * 2);
    }

    #[test]
    fn cache_key_hashes_the_standardized_tokenized_input() {
        use vql::schema::{DbSchema, TableSchema};
        let schema = DbSchema::new(
            "gallery",
            vec![TableSchema::new("artist", vec!["country".into()])],
        );
        let req = TaskRequest::TextToVis {
            question: "bar chart of artist country".into(),
            schema: schema.clone(),
        };
        let tok = tokenizer::WordTokenizer::fit([req.input_text().as_str()], 1);
        // The key is exactly the hash of the tokens the serving engine
        // admits for this request.
        assert_eq!(
            req.cache_key(&tok),
            nn::prefix_hash(&tok.encode_with_eos(&req.input_text()))
        );
        // Same standardized input -> same key; different question ->
        // different key.
        assert_eq!(req.cache_key(&tok), req.clone().cache_key(&tok));
        let other = TaskRequest::TextToVis {
            question: "pie chart of artist country".into(),
            schema,
        };
        assert_ne!(req.cache_key(&tok), other.cache_key(&tok));
    }
}
